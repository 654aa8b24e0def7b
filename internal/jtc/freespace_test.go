package jtc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"refocus/internal/dsp"
	"refocus/internal/dsp/dsptest"
	"refocus/internal/tensor"
)

// TestFFT2DMatchesNaive: the separable fast transform equals the O(N⁴)
// definition.
func TestFFT2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ h, w int }{{4, 4}, {3, 5}, {8, 16}, {7, 9}} {
		x := make([][]complex128, tc.h)
		want := make([][]complex128, tc.h)
		for y := range x {
			x[y] = make([]complex128, tc.w)
			want[y] = make([]complex128, tc.w)
			for z := range x[y] {
				x[y][z] = complex(rng.NormFloat64(), rng.NormFloat64())
				want[y][z] = x[y][z]
			}
		}
		naive := dsptest.DFT2DNaive(want)
		dsp.FFT2D(x)
		for y := range x {
			for z := range x[y] {
				if d := x[y][z] - naive[y][z]; math.Hypot(real(d), imag(d)) > 1e-8 {
					t.Fatalf("%dx%d: FFT2D differs from naive at (%d,%d)", tc.h, tc.w, y, z)
				}
			}
		}
	}
}

// TestFFT2DRoundTrip: IFFT2D inverts FFT2D including scaling.
func TestFFT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, w := 6, 10
	x := make([][]complex128, h)
	orig := make([][]complex128, h)
	for y := range x {
		x[y] = make([]complex128, w)
		orig[y] = make([]complex128, w)
		for z := range x[y] {
			x[y][z] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[y][z] = x[y][z]
		}
	}
	dsp.FFT2D(x)
	dsp.IFFT2D(x)
	for y := range x {
		for z := range x[y] {
			if d := x[y][z] - orig[y][z]; math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("round trip broken at (%d,%d)", y, z)
			}
		}
	}
}

// TestFreeSpaceJTCMatchesDigital: the 2-D tabletop JTC computes the exact
// 2-D valid cross-correlation, with no row tiling.
func TestFreeSpaceJTCMatchesDigital(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	j := NewFreeSpaceJTC(64, 512)
	for _, tc := range []struct{ hs, ws, hk, wk int }{
		{8, 8, 3, 3}, {16, 16, 5, 5}, {12, 20, 3, 7}, {30, 30, 1, 1},
	} {
		sig := randPlane(rng, tc.hs, tc.ws)
		k := randPlane(rng, tc.hk, tc.wk)
		got := j.Correlate2D(sig, k)
		want := refConv(sig, k) // tensor.Conv2DValid = 2-D cross-correlation
		for y := range got {
			for x := range got[y] {
				if d := math.Abs(got[y][x] - want.At(0, y, x)); d > 1e-8 {
					t.Fatalf("%+v at (%d,%d): optical %g vs digital %g", tc, y, x, got[y][x], want.At(0, y, x))
				}
			}
		}
	}
}

// TestFreeSpaceAgreesWithRowTiledOnChip: the paper's §2.2 equivalence — the
// on-chip 1-D row-tiled algorithm reproduces exactly what the native 2-D
// free-space system computes.
func TestFreeSpaceAgreesWithRowTiledOnChip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sig := randPlane(rng, 12, 12)
	k := randPlane(rng, 3, 3)

	freeSpace := NewFreeSpaceJTC(32, 256).Correlate2D(sig, k)
	onChip, _ := ConvPlane(sig, k, 128, DigitalCorrelator)

	for y := range freeSpace {
		for x := range freeSpace[y] {
			if d := math.Abs(freeSpace[y][x] - onChip[y][x]); d > 1e-8 {
				t.Fatalf("(%d,%d): free-space %g vs on-chip %g", y, x, freeSpace[y][x], onChip[y][x])
			}
		}
	}
}

// TestFreeSpaceEngineIntegration: the functional engine driven by the 2-D
// correlator-equivalent — here we spot-check one full multi-channel conv
// via per-channel 2-D passes against the tensor reference.
func TestFreeSpaceMultiChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	j := NewFreeSpaceJTC(32, 512)
	in := tensor.New(3, 10, 10)
	for i := range in.Data {
		in.Data[i] = rng.Float64()
	}
	w := tensor.New(1, 3, 3, 3)
	for i := range w.Data {
		w.Data[i] = rng.Float64()
	}
	acc := tensor.New(1, 8, 8)
	for c := 0; c < 3; c++ {
		sig := make([][]float64, 10)
		for y := range sig {
			sig[y] = in.Data[(c*10+y)*10 : (c*10+y)*10+10]
		}
		kern := make([][]float64, 3)
		for y := range kern {
			kern[y] = w.Data[(c*3+y)*3 : (c*3+y)*3+3]
		}
		part := j.Correlate2D(sig, kern)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				acc.Data[y*8+x] += part[y][x]
			}
		}
	}
	want := tensor.Conv2DValid(in, w)
	if d := tensor.MaxAbsDiff(acc, want); d > 1e-8 {
		t.Errorf("multi-channel free-space conv differs by %g", d)
	}
}

func TestFreeSpaceValidation(t *testing.T) {
	j := NewFreeSpaceJTC(16, 256)
	rng := rand.New(rand.NewSource(6))
	for i, fn := range []func(){
		func() { NewFreeSpaceJTC(2, 256) },
		func() { j.Correlate2D(randPlane(rng, 4, 60), randPlane(rng, 3, 3)) }, // too wide
		func() { j.Correlate2D(randPlane(rng, 14, 8), randPlane(rng, 3, 3)) }, // too tall
		func() { j.Correlate2D(randPlane(rng, 4, 4), randPlane(rng, 5, 3)) },  // kernel taller than signal
		func() { j.Correlate2D([][]float64{{-1, 1}, {1, 1}}, [][]float64{{1}}) },
	} {
		func() {
			defer func() { recover() }()
			fn()
			t.Errorf("case %d: expected panic", i)
		}()
	}
}

// TestFreeSpaceProperty: random shapes agree with the digital reference.
func TestFreeSpaceProperty(t *testing.T) {
	j := NewFreeSpaceJTC(64, 1024)
	f := func(seed int64, rh, rw, rk uint8) bool {
		hs := int(rh)%20 + 4
		ws := int(rw)%40 + 4
		k := int(rk)%3 + 1
		if k > hs || k > ws {
			k = 1
		}
		rng := rand.New(rand.NewSource(seed))
		sig := randPlane(rng, hs, ws)
		kern := randPlane(rng, k, k)
		got := j.Correlate2D(sig, kern)
		want := refConv(sig, kern)
		for y := range got {
			for x := range got[y] {
				if math.Abs(got[y][x]-want.At(0, y, x)) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFreeSpaceJTC(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	j := NewFreeSpaceJTC(64, 512)
	sig := randPlane(rng, 32, 32)
	k := randPlane(rng, 3, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Correlate2D(sig, k)
	}
}
