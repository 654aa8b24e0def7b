// This file holds the committed reference values the benchmark checks
// outputs against. They change only when the program's results change,
// which is then a reviewed diff.
package main

import "refocus/internal/jtc"

// committedFrontDigest is the SHA-256 of the JSON encoding of searchSpec's
// final Pareto front.
const committedFrontDigest = "097b7bd9e14ad133faaa6d495334cd7c650d73e775464e43e695453156c9c578"

// committedConvDigest is the SHA-256 of the golden operands' conv outputs
// (shape then float64 bits, little-endian, registry order).
const committedConvDigest = "5c3e9dc955a0ec87b9624d849d710453d031457ba9e4fd599a3bf2d5e0244f6c"

// committedPassStats is Engine.Stats after one pass over every entry
// (each Repeat times) on either path.
var committedPassStats = jtc.PassStats{Passes: 92256, InputConversions: 16772352, WeightConversions: 226144, OutputReads: 15070720}
