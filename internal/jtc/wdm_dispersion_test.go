package jtc

import (
	"math"
	"math/rand"
	"testing"

	"refocus/internal/dsp/dsptest"
)

func wdmOperands(rng *rand.Rand, nch, ls, lk int) (sig, ker [][]float64) {
	sig = make([][]float64, nch)
	ker = make([][]float64, nch)
	for i := range sig {
		sig[i] = randNonNeg(rng, ls)
		ker[i] = randNonNeg(rng, lk)
	}
	return sig, ker
}

// TestCZTMatchesNaive: the chirp-z transform equals its O(N²) definition
// for scaled and unscaled frequency steps.
func TestCZTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 17, 64, 100} {
		for _, s := range []float64{1, 0.999, 1.0013, 0.5} {
			x := randComplexSlice(rng, n)
			got := dsptest.CZT(x, s)
			want := dsptest.CZTNaive(x, s)
			for k := range got {
				if d := got[k] - want[k]; math.Hypot(real(d), imag(d)) > 1e-7 {
					t.Fatalf("n=%d s=%g: CZT differs at bin %d", n, s, k)
				}
			}
		}
	}
	// s=1 is the plain DFT.
	x := randComplexSlice(rng, 32)
	got := dsptest.CZT(x, 1)
	want := dsptest.FFT(x)
	for k := range got {
		if d := got[k] - want[k]; math.Hypot(real(d), imag(d)) > 1e-8 {
			t.Fatalf("CZT(x,1) differs from FFT at %d", k)
		}
	}
}

func randComplexSlice(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestMatchedLensPairPositionAchromatic documents the first-order physics:
// when BOTH lens transforms carry the same wavelength scale s (a matched
// 4F pair), the correlation peak position is wavelength-independent — the
// JPS stretches by λ/λ0 and the second lens un-stretches it. (Chromatic
// *defocus*, modelled separately, is what actually limits WDM.)
func TestMatchedLensPairPositionAchromatic(t *testing.T) {
	n := 2048
	sep := n / 4
	sig := make([]float64, 100)
	sig[10] = 1
	ker := make([]float64, 9)
	ker[0] = 1
	peakPos := func(s float64) int {
		in := make([]complex128, n)
		for i, v := range sig {
			in[i] = complex(v, 0)
		}
		for i, v := range ker {
			in[sep+i] = complex(v, 0)
		}
		f1 := dsptest.CZT(in, s)
		jps := make([]complex128, n)
		for i, e := range f1 {
			jps[i] = complex((real(e)*real(e)+imag(e)*imag(e))/float64(n), 0)
		}
		out := dsptest.CZT(jps, s)
		// Search the correlation band region only (the DC term at the
		// origin always dominates globally).
		best, bi := 0.0, 0
		for i := sep - 200; i < sep+200; i++ {
			if v := real(out[i]); v > best {
				best, bi = v, i
			}
		}
		return bi
	}
	ref := peakPos(1)
	if ref != sep-10 {
		t.Fatalf("design-wavelength peak at %d, want %d", ref, sep-10)
	}
	for _, s := range []float64{0.999, 1.001, 1.003} {
		if p := peakPos(s); p != ref {
			t.Errorf("s=%g: peak moved to %d (ref %d); matched pair should be position-achromatic", s, p, ref)
		}
	}
}

// TestWDMChannelCountLimit reproduces the §4.2.3 simulation finding: with
// ITU-grid 0.8 nm spacing on a 2048-sample aperture, two wavelengths keep
// the shared-detector error below the 8-bit quantization floor (1/256),
// while four or more push it an order of magnitude past — "the number of
// wavelengths should be less than 4", and ReFOCUS ships N_λ = 2.
func TestWDMChannelCountLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	j := NewWDMJTC(2048, 1550e-9, 0.8e-9)
	lsb := 1.0 / 256

	errAt := func(nch int) float64 {
		sig, ker := wdmOperands(rng, nch, 180, 9)
		return j.WDMError(sig, ker)
	}
	e1, e2, e3, e4 := errAt(1), errAt(2), errAt(3), errAt(4)
	if e1 > 1e-9 {
		t.Errorf("single channel should be exact, err=%g", e1)
	}
	if e2 > lsb {
		t.Errorf("N=2 error %g exceeds the 8-bit LSB %g; ReFOCUS's choice should be safe", e2, lsb)
	}
	if e3 < 2*lsb {
		t.Errorf("N=3 error %g should clearly exceed the 8-bit floor", e3)
	}
	if e4 < 4*lsb {
		t.Errorf("N=4 error %g should be far past the 8-bit floor (paper: <4 wavelengths)", e4)
	}
	if !(e2 < e3 && e3 < e4) {
		t.Errorf("error should grow through N=4: %g, %g, %g", e2, e3, e4)
	}
}

// TestBlurSigmaGeometry: defocus blur is linear in the channel's distance
// from the design wavelength, symmetric channels blur equally, and the
// centre channel of an odd plan is unblurred.
func TestBlurSigmaGeometry(t *testing.T) {
	j := NewWDMJTC(2048, 1550e-9, 0.8e-9)
	if s := j.BlurSigma(1, 3); s != 0 {
		t.Errorf("centre channel of 3 should be at the design wavelength, σ=%g", s)
	}
	if a, b := j.BlurSigma(0, 4), j.BlurSigma(3, 4); math.Abs(a-b) > 1e-12 {
		t.Errorf("outer channels should blur symmetrically: %g vs %g", a, b)
	}
	if a, b := j.BlurSigma(0, 2), j.BlurSigma(0, 4); b <= a {
		t.Errorf("wider plans should blur their outer channels more: %g vs %g", a, b)
	}
	j2 := NewWDMJTC(2048, 1550e-9, 1.6e-9)
	if r := j2.BlurSigma(0, 2) / j.BlurSigma(0, 2); math.Abs(r-2) > 1e-9 {
		t.Errorf("blur should be linear in spacing, ratio %g", r)
	}
}

// TestWDMCorrelateExactWithoutDispersion: zero spacing (a hypothetical
// dispersion-free system) recovers the exact channel sum — the functional
// WDM model used by the engine.
func TestWDMCorrelateExactWithoutDispersion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	j := NewWDMJTC(2048, 1550e-9, 0)
	sig, ker := wdmOperands(rng, 4, 100, 9)
	if e := j.WDMError(sig, ker); e > 1e-9 {
		t.Errorf("dispersion-free WDM error = %g, want ~0", e)
	}
}

func BenchmarkWDMCorrelate(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	j := NewWDMJTC(2048, 1550e-9, 0.8e-9)
	sig, ker := wdmOperands(rng, 2, 180, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.WDMCorrelate(sig, ker)
	}
}
