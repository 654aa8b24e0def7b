package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan holds everything a transform of one (length, direction) needs
// precomputed: the bit-reversal permutation and the full twiddle table for
// the radix-2 path, plus — for non-power-of-two lengths — the Bluestein
// chirp vector and the pre-transformed spectrum of the convolution kernel
// b, so the steady-state cost of an arbitrary-length FFT drops from three
// power-of-two FFTs (with freshly derived twiddles) to two table-driven
// ones and a few element-wise passes.
//
// Plans are immutable after construction and safe for concurrent use by
// any number of goroutines; scratch space is drawn from an internal
// sync.Pool so repeated Execute calls on same-size inputs allocate
// nothing. Obtain plans from PlanFFT — it memoizes them in a package-level
// concurrency-safe cache keyed by (n, inverse).
type Plan struct {
	n       int
	inverse bool

	// Radix-2 state (always set; for Bluestein lengths it belongs to the
	// two sub-plans instead and these stay nil).
	perm    []int32      // bit-reversal permutation: perm[i] = rev(i)
	twiddle []complex128 // twiddle[k] = exp(sign·2πi·k/n), k < n/2

	// Bluestein state (nil for powers of two).
	m     int          // convolution length, NextPowerOfTwo(2n-1)
	chirp []complex128 // chirp[k] = exp(sign·iπ·k²/n)
	bspec []complex128 // forward length-m FFT of the b kernel
	fwd   *Plan        // length-m forward sub-plan
	bwd   *Plan        // length-m inverse sub-plan (carries the 1/m scale)

	scratch *sync.Pool // *[]complex128 of length m
}

// planKey identifies one cached plan.
type planKey struct {
	n       int
	inverse bool
}

// planCache memoizes plans across the whole process. sync.Map fits the
// access pattern exactly: written once per distinct transform size, then
// read from every FFT call on every goroutine.
var planCache sync.Map // planKey -> *Plan

// PlanFFT returns the memoized transform plan for length-n inputs in the
// given direction, building and caching it on first use. n must be
// positive. Concurrent callers may race to build the same plan; the first
// store wins and the duplicates are discarded (construction is pure, so
// this is only a transient startup cost, never an inconsistency).
func PlanFFT(n int, inverse bool) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("dsp: PlanFFT of non-positive length %d", n))
	}
	key := planKey{n, inverse}
	if p, ok := planCache.Load(key); ok {
		return p.(*Plan)
	}
	p := newPlan(n, inverse)
	if prev, loaded := planCache.LoadOrStore(key, p); loaded {
		return prev.(*Plan)
	}
	return p
}

// newPlan precomputes all tables for one (n, inverse) pair.
func newPlan(n int, inverse bool) *Plan {
	p := &Plan{n: n, inverse: inverse}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	if IsPowerOfTwo(n) {
		p.perm = bitReversalPerm(n)
		p.twiddle = make([]complex128, n/2)
		for k := range p.twiddle {
			p.twiddle[k] = cmplx.Rect(1, sign*2*math.Pi*float64(k)/float64(n))
		}
		return p
	}

	// Bluestein: precompute the chirp and the forward spectrum of the b
	// kernel once, here, instead of on every call. The two length-m
	// sub-plans come from the same cache, so every non-power-of-two size
	// that shares an m shares their tables too.
	p.m = NextPowerOfTwo(2*n - 1)
	p.fwd = PlanFFT(p.m, false)
	p.bwd = PlanFFT(p.m, true)
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n keeps the argument small and exact for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		p.chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	b := make([]complex128, p.m)
	b[0] = cmplx.Conj(p.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(p.chirp[k])
		b[k] = c
		b[p.m-k] = c
	}
	p.fwd.Execute(b)
	p.bspec = b
	m := p.m
	p.scratch = &sync.Pool{New: func() any {
		s := make([]complex128, m)
		return &s
	}}
	return p
}

// bitReversalPerm returns the bit-reversal permutation for power-of-two n.
func bitReversalPerm(n int) []int32 {
	perm := make([]int32, n)
	if n == 1 {
		return perm
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	return perm
}

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

// Inverse reports whether the plan computes the inverse transform.
func (p *Plan) Inverse() bool { return p.inverse }

// Execute runs the planned transform on x in place. len(x) must equal
// Len(). Forward plans compute the unnormalized DFT; inverse plans include
// the 1/N scale, matching FFTInPlace/IFFTInPlace. Execute is safe to call
// from concurrent goroutines (on distinct inputs) and performs no heap
// allocation on the steady state.
func (p *Plan) Execute(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan for length %d executed on length %d", p.n, len(x)))
	}
	if p.n == 1 {
		return
	}
	if p.chirp == nil {
		p.radix2(x)
	} else {
		p.bluestein(x)
	}
}

// radix2 runs the table-driven iterative Cooley-Tukey butterfly network.
func (p *Plan) radix2(x []complex128) {
	n := p.n
	for i, j := range p.perm {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * p.twiddle[tw]
				x[start+k] = a + b
				x[start+k+half] = a - b
				tw += stride
			}
		}
	}
	if p.inverse {
		scale := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= scale
		}
	}
}

// bluestein runs the chirp-z convolution with all static state (chirp,
// kernel spectrum, sub-plan twiddles) read from the plan and the length-m
// work buffer drawn from the pool.
func (p *Plan) bluestein(x []complex128) {
	buf := p.scratch.Get().(*[]complex128)
	a := *buf
	n := p.n
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	for k := n; k < p.m; k++ {
		a[k] = 0
	}
	p.fwd.Execute(a)
	for i := range a {
		a[i] *= p.bspec[i]
	}
	p.bwd.Execute(a) // inverse sub-plan carries the 1/m factor
	if p.inverse {
		// Fold the outer 1/n normalization into the de-chirp pass.
		scale := complex(1/float64(n), 0)
		for k := 0; k < n; k++ {
			x[k] = a[k] * p.chirp[k] * scale
		}
	} else {
		for k := 0; k < n; k++ {
			x[k] = a[k] * p.chirp[k]
		}
	}
	p.scratch.Put(buf)
}
