package dsp

import "fmt"

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
