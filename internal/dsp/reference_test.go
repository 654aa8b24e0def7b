package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// The plan-free reference transforms: production code runs every
// transform through a Plan, and the tests cross-check the planned paths
// against these.

// radix2 performs an unnormalized in-place radix-2 DIT FFT, deriving its
// twiddle factors by recurrence on every call. It is the plan-free
// reference the planned path is cross-checked against. inverse selects
// the conjugate twiddle kernel (no 1/N scaling applied here).
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		// Twiddle factors are computed by recurrence seeded from sin/cos
		// to stay O(1) memory; the recurrence is re-seeded every block so
		// rounding error stays negligible for the transform sizes used in
		// the simulator (<= 2^20).
		wStep := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform,
// expressing the length-n DFT as a length-m circular convolution with
// m = NextPowerOfTwo(2n-1). Like radix2 it rebuilds all of its state —
// chirp vector, b kernel, and that kernel's FFT — on every call; it is
// kept as the plan-free reference implementation (see Plan for the cached
// path that hot code uses).
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	m := NextPowerOfTwo(2*n - 1)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[k] = exp(sign * i*π*k²/n). k² mod 2n keeps the argument small
	// and exact for large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	b[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(chirp[k])
		b[k] = c
		b[m-k] = c
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * invM * chirp[k]
	}
}
