package jtc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// recorder is a digital correlator that keeps a copy of every operand
// pair it is handed, so two runs can be compared pass by pass.
type recorder struct{ operands [][]float64 }

func (r *recorder) correlate(dst, signal, kernel []float64) {
	r.operands = append(r.operands, append([]float64(nil), signal...), append([]float64(nil), kernel...))
	DigitalCorrelator(dst, signal, kernel)
}

// TestScratchReuseMatchesFreshConvPlane drives one worker scratch through
// a large geometry, a smaller one and then each other tiling strategy,
// and checks every call against ConvPlane on fresh scratch, bit for bit:
// the output plane, the pass statistics and every operand the correlator
// sees. A pad left unzeroed by an earlier, wider tiling reaches no valid
// output of an exact digital correlation, but a physical correlator
// propagates the whole tiled signal, so the operands must match too.
func TestScratchReuseMatchesFreshConvPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s scratch
	for _, tc := range []struct {
		h, w, kh, kw, t int
		strategy        TilingStrategy
	}{
		{40, 40, 3, 3, 256, FullTiling},
		{12, 12, 5, 5, 256, FullTiling},
		{9, 90, 7, 7, 256, PartialTiling},
		{5, 260, 3, 3, 256, RowPartitioning},
		{6, 6, 3, 3, 64, FullTiling},
		{7, 30, 5, 3, 64, PartialTiling},
	} {
		in := randPlane(rng, tc.h, tc.w)
		k := randPlane(rng, tc.kh, tc.kw)
		if g := PlanTiling(tc.h, tc.w, tc.kh, tc.kw, tc.t); g.Strategy != tc.strategy {
			t.Fatalf("%dx%d k=%dx%d T=%d: strategy %v, want %v", tc.h, tc.w, tc.kh, tc.kw, tc.t, g.Strategy, tc.strategy)
		}
		var reused, fresh recorder
		stats := s.convPlane(in, k, tc.t, reused.correlate)
		want, wantStats := ConvPlane(in, k, tc.t, fresh.correlate)
		name := fmt.Sprintf("%v %dx%d k=%dx%d", tc.strategy, tc.h, tc.w, tc.kh, tc.kw)
		if stats != wantStats {
			t.Errorf("%s: reused scratch tallied %+v, fresh %+v", name, stats, wantStats)
		}
		if !bitsEqual(reused.operands, fresh.operands) {
			t.Errorf("%s: the correlator saw other operands on reused scratch", name)
		}
		if !bitsEqual(s.plane, want) {
			t.Errorf("%s: the output plane differs on reused scratch", name)
		}
	}
}

// bitsEqual reports whether a and b hold rows of the same lengths and
// the same float64 bits.
func bitsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestSerialConv2DAllocationsFlat: the per-pass path allocates per call
// and per worker, never per pass, so a serial-path Conv2D makes the same
// number of allocations on planes whose pass counts differ eightfold.
func TestSerialConv2DAllocationsFlat(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.DisableSpectrumReuse = true
	cfg.Parallelism = 1
	e := NewEngine(cfg)
	measure := func(hw int) (allocs float64, passes int) {
		in, wt := testConvOperands(8, 2, hw, hw, 2, 3, 3)
		e.ResetStats()
		e.Conv2D(in, wt, 1)
		passes = e.Stats().Passes
		return testing.AllocsPerRun(5, func() { e.Conv2D(in, wt, 1) }), passes
	}
	smallAllocs, smallPasses := measure(16)
	largeAllocs, largePasses := measure(48)
	if largePasses < 4*smallPasses {
		t.Fatalf("pass counts %d and %d differ by less than 4x", smallPasses, largePasses)
	}
	if smallAllocs != largeAllocs {
		t.Errorf("%v allocations at %d passes, %v at %d passes", smallAllocs, smallPasses, largeAllocs, largePasses)
	}
}
