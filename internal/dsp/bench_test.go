// Benchmarks for the transform plan cache: the planned hot path
// (FFTInPlace → Plan.Execute, precomputed tables, pooled scratch). Run
// with:
//
//	go test -bench 'FFT' -benchmem ./internal/dsp
//
// Steady-state planned transforms must report 0 allocs/op.
package dsp

import (
	"math/rand"
	"testing"
)

func benchInput(n int) []complex128 {
	rng := rand.New(rand.NewSource(int64(n)))
	return randComplex(rng, n)
}

func benchmarkPlanned(b *testing.B, n int) {
	x := benchInput(n)
	PlanFFT(n, false) // build outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFTInPlace(x)
	}
}

func BenchmarkFFTPlannedPow2_256(b *testing.B)       { benchmarkPlanned(b, 256) }
func BenchmarkFFTPlannedPow2_1024(b *testing.B)      { benchmarkPlanned(b, 1024) }
func BenchmarkFFTPlannedPow2_4096(b *testing.B)      { benchmarkPlanned(b, 4096) }
func BenchmarkFFTPlannedBluestein_1000(b *testing.B) { benchmarkPlanned(b, 1000) }
func BenchmarkFFTPlannedBluestein_1331(b *testing.B) { benchmarkPlanned(b, 1331) }

// BenchmarkFFT2D_128 measures the 2-D transform with the blocked-transpose
// column pass and pooled scratch (steady state: one transform in flight,
// zero allocations).
func BenchmarkFFT2D_128(b *testing.B) {
	x := make([][]complex128, 128)
	for i := range x {
		x[i] = benchInput(128)
	}
	FFT2D(x) // warm the pools and plans
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT2D(x)
	}
}

// BenchmarkFFT2D_96x100 measures the non-power-of-two 2-D case — both the
// length-100 row transforms and the length-96 column transforms take the
// Bluestein path — the shape class optical apertures with guard bands
// land on.
func BenchmarkFFT2D_96x100(b *testing.B) {
	x := make([][]complex128, 96)
	for i := range x {
		x[i] = benchInput(100)
	}
	FFT2D(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT2D(x)
	}
}
