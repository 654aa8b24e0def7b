package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"refocus/internal/dsp/dsptest"
)

// planTestSizes mixes powers of two, primes, and awkward composites so
// both Execute paths (radix-2 and Bluestein) are exercised, including
// sizes that share a Bluestein convolution length m.
var planTestSizes = []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 16, 17, 25, 27, 32, 45, 64, 100, 127, 128, 129, 256, 243, 500, 1000, 1024}

func maxRelErr(got, want []complex128) float64 {
	var scale float64
	for _, w := range want {
		if a := cmplx.Abs(w); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	var worst float64
	for i := range got {
		if d := cmplx.Abs(got[i]-want[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// idftNaive is the O(N²) inverse-DFT ground truth (with 1/N scaling).
func idftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			ang := 2 * math.Pi * float64(k) * float64(i) / float64(n)
			sum += x[i] * cmplx.Rect(1, ang)
		}
		out[k] = sum / complex(float64(n), 0)
	}
	return out
}

// TestPlanMatchesNaive checks the planned forward and inverse transforms
// against the O(N²) definition across mixed radix-2 and Bluestein sizes.
func TestPlanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range planTestSizes {
		x := randComplex(rng, n)

		fwd := append([]complex128(nil), x...)
		PlanFFT(n, false).Execute(fwd)
		if err := maxRelErr(fwd, dsptest.DFTNaive(x)); err > 1e-9 {
			t.Errorf("n=%d: planned forward FFT off by %g", n, err)
		}

		inv := append([]complex128(nil), x...)
		PlanFFT(n, true).Execute(inv)
		if err := maxRelErr(inv, idftNaive(x)); err > 1e-9 {
			t.Errorf("n=%d: planned inverse FFT off by %g", n, err)
		}
	}
}

// TestPlanMatchesUnplannedPath checks that the plan-driven transforms and
// the plan-free reference implementations (radix2/bluestein) agree to full
// double precision-scale tolerance on the same inputs.
func TestPlanMatchesUnplannedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range planTestSizes {
		if n < 2 {
			continue
		}
		x := randComplex(rng, n)

		planned := append([]complex128(nil), x...)
		PlanFFT(n, false).Execute(planned)

		ref := append([]complex128(nil), x...)
		if IsPowerOfTwo(n) {
			radix2(ref, false)
		} else {
			bluestein(ref, false)
		}
		if err := maxRelErr(planned, ref); err > 1e-12 {
			t.Errorf("n=%d: planned vs unplanned forward differ by %g", n, err)
		}
	}
}

// TestPlanRoundTrip verifies FFT followed by IFFT recovers the input
// through the planned path for every test size.
func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range planTestSizes {
		x := randComplex(rng, n)
		y := append([]complex128(nil), x...)
		FFTInPlace(y)
		IFFTInPlace(y)
		if err := maxRelErr(y, x); err > 1e-10 {
			t.Errorf("n=%d: round trip off by %g", n, err)
		}
	}
}

// TestPlanCacheReturnsSamePlan verifies the cache memoizes: two lookups of
// the same key are the same object, and opposite directions are distinct.
func TestPlanCacheReturnsSamePlan(t *testing.T) {
	a := PlanFFT(48, false)
	b := PlanFFT(48, false)
	if a != b {
		t.Error("same (n, inverse) key returned distinct plans")
	}
	if inv := PlanFFT(48, true); inv == a {
		t.Error("forward and inverse plans must be distinct")
	}
	if a.Len() != 48 || a.Inverse() || !PlanFFT(48, true).Inverse() {
		t.Error("plan metadata wrong")
	}
}

// TestPlanConcurrentLookupsAndExecutes hammers the plan cache and Execute
// from many goroutines across mixed sizes — the -race exercise for the
// package-level cache, the pooled Bluestein scratch, and the 2-D scratch.
// Every goroutine checks its results against precomputed serial answers,
// so the test also proves concurrent executions do not corrupt each other.
func TestPlanConcurrentLookupsAndExecutes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{8, 12, 100, 127, 128, 500, 1024}
	inputs := make(map[int][]complex128, len(sizes))
	want := make(map[int][]complex128, len(sizes))
	for _, n := range sizes {
		inputs[n] = randComplex(rng, n)
		want[n] = dsptest.DFTNaive(inputs[n])
	}

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				n := sizes[(g+it)%len(sizes)]
				x := append([]complex128(nil), inputs[n]...)
				PlanFFT(n, false).Execute(x)
				if err := maxRelErr(x, want[n]); err > 1e-9 {
					errs <- "concurrent execute corrupted a transform"
					return
				}
				// 2-D path shares the pooled plane scratch.
				m := [][]complex128{
					append([]complex128(nil), inputs[8]...),
					append([]complex128(nil), inputs[8]...),
				}
				FFT2D(m)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTransform2DBlockedTranspose covers the blocked-transpose column pass
// on shapes that are not multiples of the block size, including tall,
// wide, and block-straddling rectangles, against the naive 2-D DFT.
func TestTransform2DBlockedTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {5, 8}, {16, 16}, {31, 17}, {33, 40}, {64, 3}}
	for _, s := range shapes {
		h, w := s[0], s[1]
		x := make([][]complex128, h)
		for i := range x {
			x[i] = randComplex(rng, w)
		}
		want := dsptest.DFT2DNaive(x)
		FFT2D(x)
		for i := range x {
			if err := maxRelErr(x[i], want[i]); err > 1e-9 {
				t.Errorf("%dx%d: FFT2D row %d off by %g", h, w, i, err)
			}
		}
	}
}
