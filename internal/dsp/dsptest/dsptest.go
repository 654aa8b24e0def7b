// Package dsptest holds the reference transforms the dsp and jtc tests
// check the fast paths against: by-definition DFTs, a textbook recursive
// FFT and what is built on it, and the direct valid convolution. It
// imports nothing from dsp, so the dsp package's own tests can use it
// without an import cycle, and no reference shares code with the planned
// transforms it checks.
package dsptest

import (
	"fmt"
	"math"
	"math/cmplx"
)

// DFTNaive computes the DFT by the O(N²) definition, in dsp's unscaled
// convention X[k] = Σ_n x[n]·exp(-2πi·kn/N).
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			ang := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			sum += x[i] * cmplx.Rect(1, ang)
		}
		out[k] = sum
	}
	return out
}

// DFT2DNaive computes the 2-D DFT by definition — the O(N⁴) ground truth
// for the 2-D transforms.
func DFT2DNaive(x [][]complex128) [][]complex128 {
	h := len(x)
	w := len(x[0])
	out := make([][]complex128, h)
	for u := range out {
		out[u] = make([]complex128, w)
	}
	// Row transform then column transform via the 1-D naive DFT keeps
	// this readable and still independent of the fast path.
	rows := make([][]complex128, h)
	for i := range x {
		rows[i] = DFTNaive(x[i])
	}
	col := make([]complex128, h)
	for j := 0; j < w; j++ {
		for i := 0; i < h; i++ {
			col[i] = rows[i][j]
		}
		t := DFTNaive(col)
		for i := 0; i < h; i++ {
			out[i][j] = t[i]
		}
	}
	return out
}

// CZTNaive is the O(N²) reference for CZT:
// X[k] = Σ_n x[n]·exp(-2πi·s·nk/N).
func CZTNaive(x []complex128, s float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			sum += x[i] * cmplx.Rect(1, -2*math.Pi*s*float64(k)*float64(i)/float64(n))
		}
		out[k] = sum
	}
	return out
}

// FFT returns the DFT of x: recursive radix-2 Cooley-Tukey for
// power-of-two lengths, the definition (DFTNaive) otherwise. The input is
// not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n <= 1 || n&(n-1) != 0 {
		return DFTNaive(x)
	}
	even, odd := make([]complex128, n/2), make([]complex128, n/2)
	for i := range even {
		even[i], odd[i] = x[2*i], x[2*i+1]
	}
	e, o := FFT(even), FFT(odd)
	out := make([]complex128, n)
	for k := range e {
		t := cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n)) * o[k]
		out[k], out[k+n/2] = e[k]+t, e[k]-t
	}
	return out
}

// ifft returns the inverse DFT of x, 1/N scale included:
// conj(FFT(conj(x)))/N.
func ifft(x []complex128) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	out := FFT(c)
	for i, v := range out {
		out[i] = cmplx.Conj(v) / complex(float64(len(x)), 0)
	}
	return out
}

// IFFT2D inverts a 2-D DFT of a row-major [h][w] matrix in place (rows,
// then columns), with the full 1/(h·w) scale.
func IFFT2D(x [][]complex128) {
	for i := range x {
		copy(x[i], ifft(x[i]))
	}
	if len(x) == 0 {
		return
	}
	col := make([]complex128, len(x))
	for j := range x[0] {
		for i := range x {
			col[i] = x[i][j]
		}
		for i, v := range ifft(col) {
			x[i][j] = v
		}
	}
}

// CZT computes the chirp-z (zoom) transform
//
//	X[k] = Σ_n x[n] · exp(-2πi·s·nk/N),  k = 0..N-1
//
// — a DFT whose frequency step is scaled by s — by Bluestein's algorithm
// over FFT. A Fourier lens samples its back focal plane at coordinates
// proportional to λ·f, so a WDM channel at wavelength λ sees the
// transform with s = λ/λ₀ relative to the design wavelength (paper
// §4.2.3). s = 1 reduces to the ordinary DFT.
func CZT(x []complex128, s float64) []complex128 {
	n := len(x)
	if n <= 1 {
		return append([]complex128(nil), x...)
	}
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	// nk = (n² + k² - (k-n)²)/2 turns the transform into a convolution
	// with the chirp b[d] = exp(+iπ·s·d²/N).
	chirp := func(v float64) complex128 {
		return cmplx.Rect(1, -math.Pi*s*v/float64(n))
	}
	a, b := make([]complex128, m), make([]complex128, m)
	for i := 0; i < n; i++ {
		a[i] = x[i] * chirp(float64(i)*float64(i))
	}
	b[0] = cmplx.Conj(chirp(0))
	for d := 1; d < n; d++ {
		c := cmplx.Conj(chirp(float64(d) * float64(d)))
		b[d], b[m-d] = c, c
	}
	fa, fb := FFT(a), FFT(b)
	for i := range fa {
		fa[i] *= fb[i]
	}
	conv := ifft(fa)
	out := make([]complex128, n)
	for k := range out {
		out[k] = conv[k] * chirp(float64(k)*float64(k))
	}
	return out
}

// ConvValid computes the valid-mode linear convolution: only the outputs
// where k fully overlaps x, len(out) = len(x)-len(k)+1. It panics when the
// kernel is longer than the input.
func ConvValid(x, k []float64) []float64 {
	if len(k) > len(x) {
		panic(fmt.Sprintf("dsptest: ConvValid kernel length %d exceeds input length %d", len(k), len(x)))
	}
	out := make([]float64, len(x)-len(k)+1)
	for i := range out {
		var sum float64
		for j, kv := range k {
			// Convolution flips the kernel relative to correlation.
			sum += x[i+len(k)-1-j] * kv
		}
		out[i] = sum
	}
	return out
}
