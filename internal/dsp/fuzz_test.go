package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzFFTRoundTrip: for arbitrary lengths and content, IFFT(FFT(x)) == x
// and Parseval holds. Run with `go test -fuzz=FuzzFFTRoundTrip` to explore;
// the seed corpus runs under plain `go test`.
func FuzzFFTRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(8))
	f.Add(int64(2), uint16(13))
	f.Add(int64(3), uint16(1))
	f.Add(int64(4), uint16(255))
	f.Add(int64(5), uint16(1024))
	f.Fuzz(func(t *testing.T, seed int64, rawLen uint16) {
		n := int(rawLen)%2048 + 1
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		var energy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			energy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		X := fft(x)
		var fEnergy float64
		for _, v := range X {
			fEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(energy-fEnergy/float64(n)) > 1e-6*(energy+1) {
			t.Fatalf("n=%d: Parseval violated", n)
		}
		back := ifft(X)
		for i := range x {
			d := back[i] - x[i]
			if math.Hypot(real(d), imag(d)) > 1e-7 {
				t.Fatalf("n=%d: round trip broken at %d", n, i)
			}
		}
	})
}

// FuzzConvTheorem: the correlation theorem on the planned transforms
// (corrFFT) always equals the direct valid correlation, at any length.
func FuzzConvTheorem(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(3))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(200), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, rawX, rawK uint8) {
		nx := int(rawX)%200 + 1
		nk := int(rawK)%nx + 1
		rng := rand.New(rand.NewSource(seed))
		x := randReal(rng, nx)
		k := randReal(rng, nk)
		direct := corrValid(x, k)
		viaFFT := corrFFT(x, k)
		for i := range direct {
			if math.Abs(direct[i]-viaFFT[i]) > 1e-6*(1+math.Abs(direct[i])) {
				t.Fatalf("nx=%d nk=%d: mismatch at %d: %g vs %g", nx, nk, i, direct[i], viaFFT[i])
			}
		}
	})
}
