package jtc

import (
	"math"
	"math/rand"
	"testing"

	"refocus/internal/dsp/dsptest"
)

// TestFourFMatchesDigital: the 4F matched-filter path computes the same
// correlation as the digital reference and the JTC.
func TestFourFMatchesDigital(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewFourF(1024)
	j := NewPhysicalJTC(2048)
	for _, tc := range []struct{ ls, lk int }{{32, 3}, {100, 9}, {200, 25}} {
		sig := randNonNeg(rng, tc.ls)
		k := randNonNeg(rng, tc.lk)
		want := dsptest.CorrValid(sig, k)
		got4F := f.Correlate(sig, k)
		gotJTC := correlate(j.Correlate, sig, k)
		if d := maxAbsDiff(got4F, want); d > 1e-9 {
			t.Errorf("ls=%d lk=%d: 4F differs from digital by %g", tc.ls, tc.lk, d)
		}
		if d := maxAbsDiff(got4F, gotJTC); d > 1e-8 {
			t.Errorf("ls=%d lk=%d: 4F and JTC disagree by %g", tc.ls, tc.lk, d)
		}
	}
}

// TestFourFFilterCostMotivatesJTC quantifies the §1 drawbacks that led to
// JTC: a 3×3 CNN kernel costs the 4F system an aperture-sized complex mask
// (2 modulator settings per sample) versus 9 real amplitudes on the JTC's
// weight waveguides — two orders of magnitude more filter hardware.
func TestFourFFilterCostMotivatesJTC(t *testing.T) {
	f := NewFourF(1024)
	kernel := []float64{1, 2, 3, 2, 1, 0, 1, 0, 1} // a tiled 3×3, 9 values
	mask := f.MatchedFilter(kernel)
	if len(mask) != f.Aperture || f.FilterSamples() != f.Aperture {
		t.Fatalf("4F mask must span the aperture: %d", len(mask))
	}
	// The mask is genuinely complex: phase modulation is unavoidable.
	complexSamples := 0
	for _, v := range mask {
		if math.Abs(imag(v)) > 1e-12 {
			complexSamples++
		}
	}
	if complexSamples < f.Aperture/2 {
		t.Errorf("only %d of %d mask samples carry phase; expected a genuinely complex filter", complexSamples, f.Aperture)
	}
	// JTC cost for the same kernel: 9 real DAC values.
	jtcCost := len(kernel)
	fourFCost := 2 * f.FilterSamples() // amplitude + phase per sample
	if ratio := float64(fourFCost) / float64(jtcCost); ratio < 100 {
		t.Errorf("4F/JTC filter hardware ratio = %.0f, expected ≫100 for small kernels", ratio)
	}
}

// TestFourFValidation: capacity and sign constraints hold.
func TestFourFValidation(t *testing.T) {
	f := NewFourF(64)
	rng := rand.New(rand.NewSource(2))
	for i, fn := range []func(){
		func() { NewFourF(4) },
		func() { f.Correlate(randNonNeg(rng, 40), randNonNeg(rng, 3)) }, // 43 > 32
		func() { f.Correlate([]float64{-1, 1, 1}, []float64{1}) },
		func() { f.Correlate([]float64{1}, []float64{1, 1}) },
	} {
		func() {
			defer func() { recover() }()
			fn()
			t.Errorf("case %d: expected panic", i)
		}()
	}
}

func BenchmarkFourFCorrelate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	f := NewFourF(1024)
	sig := randNonNeg(rng, 200)
	k := randNonNeg(rng, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Correlate(sig, k)
	}
}
