package noise

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"refocus/internal/jtc"
	"refocus/internal/optics"
	"refocus/internal/tensor"
)

// deviceConvDigest is the SHA-256 of the bits TestDeviceConvDigest's
// DeviceConv calls produce. It pins the order of every noise draw and the
// exact-mode sum order of the per-pass datapath under all three tiling
// strategies; it changes only with a deliberate change to either.
const deviceConvDigest = "0942e9ece2708bea9f70e2b60e1a2bf8d0a3e150c890441ca226d37215206bdf"

// TestDeviceConvDigest runs one DeviceConv (fixed-pattern gains plus read,
// shot and RIN noise, all seeded) over inputs whose shapes select each of
// the three §2.2 tiling strategies on the default 256-waveguide engine, in
// sequence on one rng, and compares the output bits with a committed
// digest.
func TestDeviceConvDigest(t *testing.T) {
	model := optics.NoiseModel{ReadSigma: 0.05, ShotCoeff: 0.02, RINSigma: 0.01}
	conv := DeviceConv(0.3, 11, model, rand.New(rand.NewSource(5)))
	operands := rand.New(rand.NewSource(6))
	fill := func(t *tensor.Tensor) *tensor.Tensor {
		for i := range t.Data {
			t.Data[i] = operands.Float64()
		}
		return t
	}
	cases := []struct {
		name     string
		strategy jtc.TilingStrategy
		c, h, w  int
		f, k     int
		stride   int
		pad      int
	}{
		// The whole padded 12×12 plane tiles into one pass.
		{"full", jtc.FullTiling, 2, 10, 10, 3, 3, 1, 1},
		// Kernel rows run in groups of 3 (25 weight waveguides over 7
		// columns); two 96-sample padded rows fit the 256 waveguides.
		{"partial", jtc.PartialTiling, 1, 9, 90, 2, 7, 1, 0},
		// A 262-sample tiled row exceeds the waveguides and splits into
		// segments.
		{"row-partitioning", jtc.RowPartitioning, 1, 5, 260, 2, 3, 2, 0},
	}
	h := sha256.New()
	var buf [8]byte
	for _, tc := range cases {
		input := fill(tensor.New(tc.c, tc.h, tc.w))
		weights := fill(tensor.New(tc.f, tc.c, tc.k, tc.k))
		for i := range weights.Data {
			weights.Data[i] -= 0.5 // signed weights: both split parts run
		}
		rows := min(25/tc.k, tc.k)
		geo := jtc.PlanTiling(tc.h+2*tc.pad-tc.k+rows, tc.w+2*tc.pad, rows, tc.k, 256)
		if geo.Strategy != tc.strategy {
			t.Fatalf("%s: the first row group plans %v, want %v", tc.name, geo.Strategy, tc.strategy)
		}
		out := conv(input, weights, tc.stride, tc.pad)
		for _, d := range out.Shape {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			h.Write(buf[:])
		}
		for _, v := range out.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != deviceConvDigest {
		t.Errorf("DeviceConv outputs hash to %s, want %s", got, deviceConvDigest)
	}
}
