// Package phys holds physical constants, unit helpers, and the component
// power/area/loss tables the ReFOCUS paper builds its evaluation on
// (paper Tables 1 and 6). Every number carries the citation the paper gives.
//
// Conventions used across the simulator:
//   - power in watts, energy in joules
//   - area in square metres internally; helpers convert from the paper's
//     µm² and mm² figures
//   - optical loss as a linear power fraction in [0,1); dB helpers convert
package phys

import "math"

// Physical constants.
const (
	// SpeedOfLight is the vacuum speed of light in m/s.
	SpeedOfLight = 299_792_458.0
	// GroupIndexSi is the group index of the silicon-nitride/silicon
	// waveguide platform used for delay lines. The paper's Table 1 delay
	// line (8.57 mm for 0.1 ns) implies c/n_g·0.1ns = 8.57 mm, i.e.
	// n_g ≈ 3.498, consistent with a silicon strip waveguide.
	GroupIndexSi = SpeedOfLight * 0.1e-9 / 8.57e-3
)

// Unit multipliers for readability at call sites.
const (
	MilliWatt = 1e-3
	GHz       = 1e9
	MHz       = 1e6
	NS        = 1e-9
	MM        = 1e-3
	UM2       = 1e-12 // µm² in m²
	MM2       = 1e-6  // mm² in m²
	PJ        = 1e-12
	KB        = 1024
	MB        = 1024 * 1024
)

// DBToFraction converts a loss in dB to the transmitted power fraction,
// e.g. 3 dB -> ~0.501.
func DBToFraction(db float64) float64 {
	return math.Pow(10, -db/10)
}

// FractionToDB converts a transmitted power fraction to loss in dB.
func FractionToDB(fraction float64) float64 {
	return -10 * math.Log10(fraction)
}

// DBLoss converts a loss in dB to the *lost* power fraction in [0,1),
// the l_d convention used in the paper's Equations 2-4.
func DBLoss(db float64) float64 {
	return 1 - DBToFraction(db)
}

// MM2ToM2 converts mm² to m².
func MM2ToM2(v float64) float64 { return v * MM2 }

// M2ToMM2 converts m² to mm².
func M2ToMM2(v float64) float64 { return v / MM2 }

// M2ToUM2 converts m² to µm².
func M2ToUM2(v float64) float64 { return v / UM2 }
