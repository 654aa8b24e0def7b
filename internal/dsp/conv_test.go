package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"refocus/internal/dsp/dsptest"
)

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
	corr := CorrValid(x, k)
	conv := dsptest.ConvValid(x, flipped)
	if d := maxAbsDiff(corr, conv); d > 1e-12 {
		t.Errorf("CorrValid != ConvValid with flipped kernel (diff %g)", d)
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
		if d := maxAbsDiff(CorrValid(x, k), corrFFT(x, k)); d > 1e-8 {
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
		return maxAbsDiff(CorrValid(x, k), corrFFT(x, k)) < 1e-7
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
		lhs := CorrValid(x, mix)
		c1, c2 := CorrValid(x, k1), CorrValid(x, k2)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CorrValid(x, k)
	}
}
