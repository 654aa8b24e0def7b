package dsp

import "fmt"

// ConvFull computes the full linear convolution of x and k:
// out[n] = Σ_m x[m]·k[n-m], len(out) = len(x)+len(k)-1.
func ConvFull(x, k []float64) []float64 {
	if len(x) == 0 || len(k) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(k)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, kv := range k {
			out[i+j] += xv * kv
		}
	}
	return out
}

// ConvValid computes the valid-mode linear convolution: only the outputs
// where k fully overlaps x, len(out) = len(x)-len(k)+1. It panics when the
// kernel is longer than the input.
func ConvValid(x, k []float64) []float64 {
	if len(k) > len(x) {
		panic(fmt.Sprintf("dsp: ConvValid kernel length %d exceeds input length %d", len(k), len(x)))
	}
	n := len(x) - len(k) + 1
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j, kv := range k {
			// Convolution flips the kernel relative to correlation.
			sum += x[i+len(k)-1-j] * kv
		}
		out[i] = sum
	}
	return out
}

// CorrValid computes the valid-mode cross-correlation of x with k:
// out[i] = Σ_j x[i+j]·k[j]. This is the operation CNN "convolution" layers
// actually perform and the one a JTC produces directly (paper Eq. 1: the JTC
// output term s(x)∗k(−x) is a correlation).
func CorrValid(x, k []float64) []float64 {
	if len(k) > len(x) {
		panic(fmt.Sprintf("dsp: CorrValid kernel length %d exceeds input length %d", len(k), len(x)))
	}
	n := len(x) - len(k) + 1
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j, kv := range k {
			sum += x[i+j] * kv
		}
		out[i] = sum
	}
	return out
}

// CorrFull computes the full cross-correlation with lag running from
// -(len(k)-1) to len(x)-1; out has length len(x)+len(k)-1 and out[len(k)-1+l]
// is the correlation at lag l.
func CorrFull(x, k []float64) []float64 {
	if len(x) == 0 || len(k) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(k)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, kv := range k {
			out[i-j+len(k)-1] += xv * kv
		}
	}
	return out
}

// ConvCircular computes the length-N circular convolution of x and k, both
// of which must have the same length. The Fourier-optical convolution a JTC
// computes is circular over the lens aperture; the row-tiling algorithm in
// the jtc package reserves guard bands so the circular wrap never corrupts
// valid outputs. This function is the digital ground truth for that wrap.
func ConvCircular(x, k []float64) []float64 {
	if len(x) != len(k) {
		panic(fmt.Sprintf("dsp: ConvCircular length mismatch %d vs %d", len(x), len(k)))
	}
	n := len(x)
	out := make([]float64, n)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, kv := range k {
			out[(i+j)%n] += xv * kv
		}
	}
	return out
}

// ConvFFT computes the full linear convolution via the convolution theorem,
// zero-padding both inputs to a power of two >= len(x)+len(k)-1. It is the
// digital analogue of what the 4F/JTC optical system does and must agree
// with ConvFull to numerical precision.
func ConvFFT(x, k []float64) []float64 {
	if len(x) == 0 || len(k) == 0 {
		return nil
	}
	n := len(x) + len(k) - 1
	m := NextPowerOfTwo(n)
	a := make([]complex128, m)
	b := make([]complex128, m)
	for i, v := range x {
		a[i] = complex(v, 0)
	}
	for i, v := range k {
		b[i] = complex(v, 0)
	}
	FFTInPlace(a)
	FFTInPlace(b)
	for i := range a {
		a[i] *= b[i]
	}
	IFFTInPlace(a)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(a[i])
	}
	return out
}

// CorrCircularFFT computes the circular cross-correlation of x with k via
// FFTs: out = IFFT(FFT(x)·conj(FFT(k))). Both inputs must share a length.
func CorrCircularFFT(x, k []float64) []float64 {
	if len(x) != len(k) {
		panic(fmt.Sprintf("dsp: CorrCircularFFT length mismatch %d vs %d", len(x), len(k)))
	}
	a := make([]complex128, len(x))
	b := make([]complex128, len(k))
	for i := range x {
		a[i] = complex(x[i], 0)
		b[i] = complex(k[i], 0)
	}
	FFTInPlace(a)
	FFTInPlace(b)
	for i := range a {
		a[i] *= complex(real(b[i]), -imag(b[i]))
	}
	IFFTInPlace(a)
	out := make([]float64, len(x))
	for i := range out {
		out[i] = real(a[i])
	}
	return out
}
