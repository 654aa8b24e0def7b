// Package dsptest holds the by-definition transforms the dsp and jtc
// tests check the fast paths against. It imports nothing from dsp, so the
// dsp package's own tests can use it without an import cycle.
package dsptest

import (
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

// CZTNaive is the O(N²) reference for dsp.CZT:
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
