package dsp

import "fmt"

// CorrValid computes the valid-mode cross-correlation of x with k into dst:
// dst[i] = Σ_j x[i+j]·k[j] for the len(x)-len(k)+1 valid lags, which is
// exactly len(dst). This is the operation CNN "convolution" layers
// actually perform and the one a JTC produces directly (paper Eq. 1: the JTC
// output term s(x)∗k(−x) is a correlation). It allocates nothing.
func CorrValid(dst, x, k []float64) {
	if len(k) > len(x) {
		panic(fmt.Sprintf("dsp: CorrValid kernel length %d exceeds input length %d", len(k), len(x)))
	}
	n := len(x) - len(k) + 1
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: CorrValid destination holds %d samples, want %d", len(dst), n))
	}
	for i := 0; i < n; i++ {
		var sum float64
		for j, kv := range k {
			sum += x[i+j] * kv
		}
		dst[i] = sum
	}
}
