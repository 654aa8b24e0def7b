package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"refocus/internal/dsp/dsptest"
)

// corrValid is CorrValid into a fresh destination.
func corrValid(x, k []float64) []float64 {
	out := make([]float64, len(x)-len(k)+1)
	CorrValid(out, x, k)
	return out
}

// corrFFT is the valid cross-correlation of x with k by the correlation
// theorem on the planned transforms: IFFT(FFT(x)·conj(FFT(k))) at length
// len(x), whose lags 0 .. len(x)-len(k) never wrap.
func corrFFT(x, k []float64) []float64 {
	a, b := make([]complex128, len(x)), make([]complex128, len(x))
	for i, v := range x {
		a[i] = complex(v, 0)
	}
	for i, v := range k {
		b[i] = complex(v, 0)
	}
	FFTInPlace(a)
	FFTInPlace(b)
	for i := range a {
		a[i] *= cmplx.Conj(b[i])
	}
	IFFTInPlace(a)
	out := make([]float64, len(x)-len(k)+1)
	for i := range out {
		out[i] = real(a[i])
	}
	return out
}

func TestCorrValidIsConvWithFlippedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randReal(rng, 30)
	k := randReal(rng, 7)
	flipped := make([]float64, len(k))
	for i, v := range k {
		flipped[len(k)-1-i] = v
	}
	corr := corrValid(x, k)
	conv := dsptest.ConvValid(x, flipped)
	if d := maxAbsDiff(corr, conv); d > 1e-12 {
		t.Errorf("CorrValid != ConvValid with flipped kernel (diff %g)", d)
	}
}

// TestCorrValidDestination: CorrValid writes every valid lag into the
// caller's slice, overwriting what was there, and refuses a destination
// of any other length or a kernel longer than its input.
func TestCorrValidDestination(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	k := []float64{1, 10}
	dst := []float64{-7, -7, -7}
	CorrValid(dst, x, k)
	for i, want := range []float64{21, 32, 43} {
		if dst[i] != want {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], want)
		}
	}
	for _, tc := range []struct {
		name      string
		dst, x, k []float64
	}{
		{"short destination", make([]float64, 2), x, k},
		{"long destination", make([]float64, 4), x, k},
		{"kernel longer than input", make([]float64, 1), []float64{1}, k},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			CorrValid(tc.dst, tc.x, tc.k)
		}()
	}
}

// TestConvValidPanicsOnLongKernel: the direct convolution reference
// refuses a kernel longer than its input, like CorrValid.
func TestConvValidPanicsOnLongKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when kernel longer than input")
		}
	}()
	dsptest.ConvValid([]float64{1, 2}, []float64{1, 2, 3})
}

// TestConvFFTMatchesDirect is the convolution theorem, in its correlation
// form — the mathematical foundation of the whole 4F/JTC accelerator
// family: the planned transforms reproduce the direct correlation on
// radix-2 and Bluestein lengths.
func TestConvFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct{ nx, nk int }{{1, 1}, {5, 3}, {64, 9}, {100, 25}, {256, 9}, {33, 17}} {
		x := randReal(rng, tc.nx)
		k := randReal(rng, tc.nk)
		if d := maxAbsDiff(corrValid(x, k), corrFFT(x, k)); d > 1e-8 {
			t.Errorf("nx=%d nk=%d: FFT correlation differs from CorrValid by %g", tc.nx, tc.nk, d)
		}
	}
}

// TestConvPropertyTheorem property-checks the correlation theorem over
// random operand sizes, the invariant everything downstream leans on.
func TestConvPropertyTheorem(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		nx := int(a)%80 + 1
		nk := int(b)%nx + 1
		rng := rand.New(rand.NewSource(seed))
		x := randReal(rng, nx)
		k := randReal(rng, nk)
		return maxAbsDiff(corrValid(x, k), corrFFT(x, k)) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestConvPropertyLinearity: corr(x, a·k1 + b·k2) = a·corr(x,k1) + b·corr(x,k2).
func TestConvPropertyLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randReal(rng, 24)
		k1 := randReal(rng, 7)
		k2 := randReal(rng, 7)
		a, b := rng.NormFloat64(), rng.NormFloat64()
		mix := make([]float64, 7)
		for i := range mix {
			mix[i] = a*k1[i] + b*k2[i]
		}
		lhs := corrValid(x, mix)
		c1, c2 := corrValid(x, k1), corrValid(x, k2)
		rhs := make([]float64, len(lhs))
		for i := range rhs {
			rhs[i] = a*c1[i] + b*c2[i]
		}
		return maxAbsDiff(lhs, rhs) < 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkConvDirect256x9(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	x := randReal(rng, 256)
	k := randReal(rng, 9)
	dst := make([]float64, len(x)-len(k)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CorrValid(dst, x, k)
	}
}
