package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// rfftSizes covers the interesting regimes: trivial, even packed path
// (including the smallest), odd Bluestein fallback, and sizes whose half
// length is itself a Bluestein length.
var rfftSizes = []int{1, 2, 4, 6, 8, 10, 16, 25, 31, 32, 100, 128, 254, 255, 256, 257, 1000, 1024}

// TestRFFTMatchesNaive: the packed real lane agrees with the
// widen-to-complex reference on every size regime, and FFTReal's mirrored
// full spectrum does too.
func TestRFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range rfftSizes {
		x := randReal(rng, n)
		want := FFTRealNaive(x)
		got := RFFT(x)
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: RFFT returned %d bins, want %d", n, len(got), n/2+1)
		}
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d bin %d: RFFT %v, naive %v", n, k, got[k], want[k])
			}
		}
		full := FFTReal(x)
		for k := range full {
			if cmplx.Abs(full[k]-want[k]) > 1e-9*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d bin %d: FFTReal %v, naive %v", n, k, full[k], want[k])
			}
		}
	}
}

// TestRFFTRoundTrip: IRFFT(RFFT(x), n) == x for both parities.
func TestRFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range rfftSizes {
		x := randReal(rng, n)
		back := IRFFT(RFFT(x), n)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				t.Fatalf("n=%d: round trip broken at %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

// TestRFFT2DMatchesFFT2D: the real 2-D transform equals the complex one on
// real input, including the mirror-filled upper columns, across square,
// non-square, odd, and Bluestein shapes.
func TestRFFT2DMatchesFFT2D(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := [][2]int{{1, 1}, {2, 2}, {4, 8}, {7, 9}, {12, 100}, {32, 32}, {31, 17}, {16, 255}}
	for _, s := range shapes {
		h, w := s[0], s[1]
		x := make([][]float64, h)
		c := make([][]complex128, h)
		for i := range x {
			x[i] = randReal(rng, w)
			c[i] = make([]complex128, w)
			for j, v := range x[i] {
				c[i][j] = complex(v, 0)
			}
		}
		FFT2D(c)
		got := RFFT2D(x)
		for i := range got {
			for j := range got[i] {
				if cmplx.Abs(got[i][j]-c[i][j]) > 1e-9*(1+cmplx.Abs(c[i][j])) {
					t.Fatalf("%dx%d at (%d,%d): RFFT2D %v, FFT2D %v", h, w, i, j, got[i][j], c[i][j])
				}
			}
		}
	}
}

// TestShiftInPlaceMatchesAllocating: the in-place rotations agree with the
// allocating FFTShift/IFFTShift for both parities, and compose to identity.
func TestShiftInPlaceMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 8, 9, 64, 255} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		shifted := FFTShift(x)
		got := append([]complex128(nil), x...)
		FFTShiftInPlace(got)
		for i := range got {
			if got[i] != shifted[i] {
				t.Fatalf("n=%d: FFTShiftInPlace differs at %d", n, i)
			}
		}
		IFFTShiftInPlace(got)
		for i := range got {
			if got[i] != x[i] {
				t.Fatalf("n=%d: shift∘unshift not identity at %d", n, i)
			}
		}
		unshifted := IFFTShift(x)
		got2 := append([]complex128(nil), x...)
		IFFTShiftInPlace(got2)
		for i := range got2 {
			if got2[i] != unshifted[i] {
				t.Fatalf("n=%d: IFFTShiftInPlace differs at %d", n, i)
			}
		}
	}
}

// TestExecuteBatchMatchesExecute: the batched complex path is bit-identical
// to per-row Execute for both radix-2 and Bluestein plans, both directions.
func TestExecuteBatchMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 8, 100} {
		for _, inverse := range []bool{false, true} {
			const rows = 5
			flat := make([]complex128, rows*n)
			for i := range flat {
				flat[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := make([]complex128, rows*n)
			copy(want, flat)
			p := PlanFFT(n, inverse)
			for r := 0; r < rows; r++ {
				p.Execute(want[r*n : (r+1)*n])
			}
			p.ExecuteBatch(flat)
			for i := range flat {
				if flat[i] != want[i] {
					t.Fatalf("n=%d inverse=%v: batch differs at %d", n, inverse, i)
				}
			}
		}
	}
}

// TestBatchStaging: the Batch type's stage-execute-read cycle matches
// direct transforms, survives growth across many rows, and Reset reuses
// the buffer.
func TestBatchStaging(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, rows = 16, 9
	b := NewBatch(n, false)
	if b.Len() != n || b.Rows() != 0 {
		t.Fatalf("fresh batch: Len %d Rows %d", b.Len(), b.Rows())
	}
	inputs := make([][]complex128, rows)
	for r := range inputs {
		inputs[r] = make([]complex128, n)
		for i := range inputs[r] {
			inputs[r][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		copy(b.Next(), inputs[r])
	}
	if b.Rows() != rows {
		t.Fatalf("staged %d rows, Rows says %d", rows, b.Rows())
	}
	b.Execute()
	for r := range inputs {
		want := FFT(inputs[r])
		row := b.Row(r)
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("row %d bin %d: batch %v, FFT %v", r, i, row[i], want[i])
			}
		}
	}
	b.Reset()
	if b.Rows() != 0 {
		t.Fatalf("Rows %d after Reset", b.Rows())
	}
	// A fresh Next row arrives zeroed even though the buffer is recycled.
	row := b.Next()
	for i, v := range row {
		if v != 0 {
			t.Fatalf("recycled row not zeroed at %d", i)
		}
	}
}

func benchmarkRFFT(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := randReal(rng, n)
	p := PlanRFFT(n)
	dst := make([]complex128, p.SpectrumLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(dst, x)
	}
}

// BenchmarkRFFTPow2_256 measures the packed real forward transform at the
// engine's row-tiling scale.
func BenchmarkRFFTPow2_256(b *testing.B) { benchmarkRFFT(b, 256) }

// BenchmarkRFFTPow2_1024 measures the packed real forward transform at the
// physical-JTC aperture scale.
func BenchmarkRFFTPow2_1024(b *testing.B) { benchmarkRFFT(b, 1024) }

// BenchmarkRFFTBluestein_1000 measures the odd-length fallback lane.
func BenchmarkRFFTBluestein_1000(b *testing.B) { benchmarkRFFT(b, 999) }

// BenchmarkIRFFTPow2_1024 measures the inverse real lane at the
// physical-JTC aperture scale.
func BenchmarkIRFFTPow2_1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1024
	p := PlanRFFT(n)
	spec := make([]complex128, p.SpectrumLen())
	for i := range spec {
		spec[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	spec[0] = complex(real(spec[0]), 0)
	spec[len(spec)-1] = complex(real(spec[len(spec)-1]), 0)
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Inverse(dst, spec)
	}
}
