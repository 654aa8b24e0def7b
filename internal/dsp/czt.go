package dsp

import (
	"math"
	"math/cmplx"
)

// CZT computes the chirp-z (zoom) transform
//
//	X[k] = Σ_n x[n] · exp(-2πi·s·nk/N),  k = 0..N-1
//
// — a DFT whose frequency step is scaled by s. A Fourier lens samples its
// back focal plane at coordinates proportional to λ·f, so a WDM channel at
// wavelength λ sees the transform with s = λ/λ₀ relative to the design
// wavelength: CZT is the tool that lets the optics simulation carry real
// chromatic dispersion (paper §4.2.3). s = 1 reduces to the ordinary DFT.
func CZT(x []complex128, s float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []complex128{x[0]}
	}
	m := NextPowerOfTwo(2*n - 1)
	// nk = (n² + k² - (k-n)²)/2 turns the transform into a convolution
	// with the chirp b[d] = exp(+iπ·s·d²/N).
	a := make([]complex128, m)
	b := make([]complex128, m)
	chirp := func(v float64) complex128 {
		return cmplx.Rect(1, -math.Pi*s*v/float64(n))
	}
	for i := 0; i < n; i++ {
		a[i] = x[i] * chirp(float64(i)*float64(i))
	}
	b[0] = cmplx.Conj(chirp(0))
	for d := 1; d < n; d++ {
		c := cmplx.Conj(chirp(float64(d) * float64(d)))
		b[d] = c
		b[m-d] = c
	}
	// The chirp depends on the continuous scale s, so it cannot be plan-
	// cached like the plain DFT's — but the three length-m transforms can
	// still run off the shared power-of-two plans (the inverse plan carries
	// the 1/m factor).
	fwd, bwd := PlanFFT(m, false), PlanFFT(m, true)
	fwd.Execute(a)
	fwd.Execute(b)
	for i := range a {
		a[i] *= b[i]
	}
	bwd.Execute(a)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * chirp(float64(k)*float64(k))
	}
	return out
}
