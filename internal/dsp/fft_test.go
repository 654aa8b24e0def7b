package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"refocus/internal/dsp/dsptest"
)

const fftTol = 1e-9

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxAbsDiffC(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// fft returns FFTInPlace of a copy of x.
func fft(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	FFTInPlace(out)
	return out
}

// ifft returns IFFTInPlace of a copy of x.
func ifft(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	IFFTInPlace(out)
	return out
}

// shifted returns x rotated by FFTShiftInPlace (inverse: IFFTShiftInPlace),
// leaving x as it was.
func shifted(x []complex128, inverse bool) []complex128 {
	out := append([]complex128(nil), x...)
	if inverse {
		IFFTShiftInPlace(out)
	} else {
		FFTShiftInPlace(out)
	}
	return out
}

func TestIsPowerOfTwo(t *testing.T) {
	cases := map[int]bool{
		-4: false, 0: false, 1: true, 2: true, 3: false,
		4: true, 6: false, 1024: true, 1023: false,
	}
	for n, want := range cases {
		if got := IsPowerOfTwo(n); got != want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 16: 16, 17: 32, 1000: 1024}
	for n, want := range cases {
		if got := NextPowerOfTwo(n); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPowerOfTwoPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NextPowerOfTwo(0)")
		}
	}()
	NextPowerOfTwo(0)
}

// TestFFTMatchesNaiveDFT checks the FFT against the O(N²) definition for a
// spread of lengths covering radix-2, odd, prime, and mixed cases.
func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 17, 31, 32, 45, 64, 100, 127, 128, 255, 256} {
		x := randComplex(rng, n)
		got := fft(x)
		want := dsptest.DFTNaive(x)
		if d := maxAbsDiffC(got, want); d > 1e-8 {
			t.Errorf("n=%d: FFT differs from naive DFT by %g", n, d)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 8, 15, 16, 37, 64, 129, 256, 1000, 1024} {
		x := randComplex(rng, n)
		y := ifft(fft(x))
		if d := maxAbsDiffC(x, y); d > fftTol {
			t.Errorf("n=%d: ifft(fft(x)) differs from x by %g", n, d)
		}
	}
}

// TestFFTParseval checks energy conservation: Σ|x|² = (1/N)Σ|X|².
func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 9, 64, 100, 255, 1024} {
		x := randComplex(rng, n)
		X := fft(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		ef /= float64(n)
		if math.Abs(et-ef) > 1e-8*et {
			t.Errorf("n=%d: Parseval violated: time %g vs freq %g", n, et, ef)
		}
	}
}

// TestFFTImpulse checks the two delta identities: FFT of a unit impulse is
// flat, FFT of a constant is an impulse at DC.
func TestFFTImpulse(t *testing.T) {
	n := 16
	imp := make([]complex128, n)
	imp[0] = 1
	X := fft(imp)
	for k, v := range X {
		if cmplx.Abs(v-1) > fftTol {
			t.Errorf("fft(delta)[%d] = %v, want 1", k, v)
		}
	}
	flat := make([]complex128, n)
	for i := range flat {
		flat[i] = 1
	}
	Y := fft(flat)
	if cmplx.Abs(Y[0]-complex(float64(n), 0)) > fftTol {
		t.Errorf("fft(1)[0] = %v, want %d", Y[0], n)
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(Y[k]) > fftTol {
			t.Errorf("fft(1)[%d] = %v, want 0", k, Y[k])
		}
	}
}

// TestFFTShiftTheorem verifies that a circular shift in time multiplies the
// spectrum by a linear phase — the property that places the JTC's two inputs
// at distinct offsets and makes their cross term carry fringe frequency
// proportional to their separation (paper §2.1).
func TestFFTShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	shift := 5
	x := randComplex(rng, n)
	shifted := make([]complex128, n)
	for i := range x {
		shifted[(i+shift)%n] = x[i]
	}
	X := fft(x)
	S := fft(shifted)
	for k := 0; k < n; k++ {
		phase := cmplx.Rect(1, -2*math.Pi*float64(k)*float64(shift)/float64(n))
		if d := cmplx.Abs(S[k] - X[k]*phase); d > 1e-9 {
			t.Fatalf("shift theorem violated at bin %d: diff %g", k, d)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 48 // non power of two: exercises Bluestein
	x := randComplex(rng, n)
	y := randComplex(rng, n)
	a, b := complex(2.5, -1), complex(-0.5, 3)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + b*y[i]
	}
	lhs := fft(sum)
	X, Y := fft(x), fft(y)
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = a*X[i] + b*Y[i]
	}
	if d := maxAbsDiffC(lhs, rhs); d > 1e-8 {
		t.Errorf("linearity violated by %g", d)
	}
}

// TestRealInputConjugateSymmetry: FFTInPlace on a real input yields a
// conjugate-symmetric spectrum, X[k] = conj(X[n-k]), on both the radix-2
// and the Bluestein path.
func TestRealInputConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{8, 15, 32, 100} {
		X := make([]complex128, n)
		for i, v := range randReal(rng, n) {
			X[i] = complex(v, 0)
		}
		FFTInPlace(X)
		for k := 1; k < n; k++ {
			if d := cmplx.Abs(X[k] - cmplx.Conj(X[n-k])); d > 1e-9 {
				t.Errorf("n=%d bin %d: conjugate symmetry violated by %g", n, k, d)
			}
		}
	}
}

func TestFFTShiftRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 5, 8, 9, 64} {
		x := randComplex(rng, n)
		y := shifted(shifted(x, false), true)
		if d := maxAbsDiffC(x, y); d != 0 {
			t.Errorf("n=%d: unshifting the shifted x does not give x (diff %g)", n, d)
		}
	}
}

// TestShiftInPlaceMatchesAllocating: the in-place rotations agree with
// the allocating by-definition shifts (numpy's fftshift puts input
// (i+⌈n/2⌉) mod n at i; ifftshift puts input (i+⌊n/2⌋) mod n at i) for
// both parities, and compose to identity.
func TestShiftInPlaceMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 8, 9, 64, 255} {
		x := randComplex(rng, n)
		want, wantInv := make([]complex128, n), make([]complex128, n)
		for i := range x {
			want[i] = x[(i+(n+1)/2)%n]
			wantInv[i] = x[(i+n/2)%n]
		}
		got := shifted(x, false)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: FFTShiftInPlace differs at %d", n, i)
			}
		}
		IFFTShiftInPlace(got)
		for i := range got {
			if got[i] != x[i] {
				t.Fatalf("n=%d: shift∘unshift not identity at %d", n, i)
			}
		}
		got2 := shifted(x, true)
		for i := range got2 {
			if got2[i] != wantInv[i] {
				t.Fatalf("n=%d: IFFTShiftInPlace differs at %d", n, i)
			}
		}
	}
}

func TestFFTShiftCentersDC(t *testing.T) {
	// After FFTShift, DC must sit at index (n+1)/2 - ... for even n at n/2.
	for _, n := range []int{4, 5, 8, 9} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = 1 // FFT is an impulse at DC
		}
		s := shifted(fft(x), false)
		center := n / 2
		if cmplx.Abs(s[center]-complex(float64(n), 0)) > fftTol {
			t.Errorf("n=%d: DC bin not centred at %d after FFTShift: %v", n, center, s)
		}
	}
}

// TestFFTPropertyRoundTrip is a property-based check over random lengths and
// contents: IFFT∘FFT is the identity.
func TestFFTPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, rawLen uint16) bool {
		n := int(rawLen)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		x := randComplex(rng, n)
		return maxAbsDiffC(x, ifft(fft(x))) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFFTPropertyParseval property-checks energy conservation on random data.
func TestFFTPropertyParseval(t *testing.T) {
	f := func(seed int64, rawLen uint16) bool {
		n := int(rawLen)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		x := randComplex(rng, n)
		X := fft(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		return math.Abs(et-ef/float64(n)) <= 1e-8*(et+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
