// Package dsp provides the numerical substrate for the ReFOCUS simulator:
// fast Fourier transforms of arbitrary length, convolution and correlation.
//
// The photonic joint transform correlator (JTC) at the heart of ReFOCUS
// computes Fourier transforms with on-chip lenses. Simulating it faithfully
// requires complex-field FFTs; Go's standard library has none, so this
// package implements an iterative radix-2 Cooley-Tukey transform for
// power-of-two lengths and Bluestein's chirp-z algorithm for everything
// else. All transforms use the unitary-unscaled convention
//
//	X[k] = Σ_n x[n]·exp(-2πi·kn/N)
//
// with Inverse applying the conjugate kernel and a 1/N scale, matching the
// convention used in Goodman, "Introduction to Fourier Optics" for a lens of
// focal length f (up to the physical coordinate scaling, which the optics
// package handles).
package dsp

import (
	"fmt"
	"math/bits"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics if n is
// not positive or the result would overflow an int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("dsp: NextPowerOfTwo of non-positive %d", n))
	}
	if IsPowerOfTwo(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic(fmt.Sprintf("dsp: NextPowerOfTwo overflow for %d", n))
	}
	return p
}

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Any positive length is supported; power-of-two lengths use
// radix-2 Cooley-Tukey directly, others go through Bluestein's algorithm.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	FFTInPlace(out)
	return out
}

// IFFT returns the inverse discrete Fourier transform of x (with the 1/N
// scale). The input is not modified.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	IFFTInPlace(out)
	return out
}

// FFTInPlace computes the DFT of x in place. It routes through the
// package-level plan cache (see PlanFFT), so repeated transforms of the
// same length reuse precomputed twiddle tables and allocate nothing.
func FFTInPlace(x []complex128) {
	if len(x) <= 1 {
		return
	}
	PlanFFT(len(x), false).Execute(x)
}

// IFFTInPlace computes the inverse DFT of x in place, including the 1/N
// normalization. Like FFTInPlace it runs off the cached plan for len(x).
func IFFTInPlace(x []complex128) {
	if len(x) <= 1 {
		return
	}
	PlanFFT(len(x), true).Execute(x)
}

// FFTShift rotates x so the zero-frequency bin moves to the centre, the way
// an optical Fourier plane presents it (DC at the optical axis). For even N
// the split is symmetric; for odd N the extra sample lands on the left half,
// matching numpy's fftshift.
func FFTShift(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	half := (n + 1) / 2
	copy(out, x[half:])
	copy(out[n-half:], x[:half])
	return out
}

// IFFTShift undoes FFTShift for any length.
func IFFTShift(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	half := (n + 1) / 2
	copy(out[half:], x[:n-half])
	copy(out, x[n-half:])
	return out
}

// FFTShiftInPlace is FFTShift without the allocation: x is rotated in
// place so the zero-frequency bin moves to the centre. Used on hot paths
// that present a Fourier plane per call (the 4F correlator).
func FFTShiftInPlace(x []complex128) {
	rotateLeft(x, (len(x)+1)/2)
}

// IFFTShiftInPlace undoes FFTShiftInPlace (and FFTShift) in place.
func IFFTShiftInPlace(x []complex128) {
	rotateLeft(x, len(x)/2)
}

// rotateLeft rotates x left by k positions in place via the three-reversal
// identity — O(n) time, O(1) space.
func rotateLeft(x []complex128, k int) {
	n := len(x)
	if n == 0 {
		return
	}
	k %= n
	if k == 0 {
		return
	}
	reverseComplex(x[:k])
	reverseComplex(x[k:])
	reverseComplex(x)
}

// reverseComplex reverses a complex slice in place.
func reverseComplex(x []complex128) {
	for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
	}
}
