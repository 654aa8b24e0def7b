package jtc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"refocus/internal/dsp/dsptest"
	"refocus/internal/optics"
)

func randNonNeg(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// correlate runs corr into a fresh destination of len(signal)-len(kernel)+1
// samples (none when the kernel is longer, so corr's own check panics).
func correlate(corr Correlator, signal, kernel []float64) []float64 {
	out := make([]float64, max(len(signal)-len(kernel)+1, 0))
	corr(out, signal, kernel)
	return out
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

// TestPhysicalJTCMatchesDigitalCorrelation is the foundational experiment:
// light propagated through lens → square law → lens computes the same
// valid cross-correlation as the digital reference (paper Eq. 1, §2.1).
func TestPhysicalJTCMatchesDigitalCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	j := NewPhysicalJTC(1024)
	for _, tc := range []struct{ ls, lk int }{{8, 3}, {16, 9}, {32, 5}, {64, 25}, {100, 9}, {119, 9}} {
		s := randNonNeg(rng, tc.ls)
		k := randNonNeg(rng, tc.lk)
		got := correlate(j.Correlate, s, k)
		want := dsptest.CorrValid(s, k)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("ls=%d lk=%d: optical correlation differs from digital by %g", tc.ls, tc.lk, d)
		}
	}
}

func TestPhysicalJTCConvolveValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	j := NewPhysicalJTC(512)
	s := randNonNeg(rng, 40)
	k := randNonNeg(rng, 7)
	got := j.ConvolveValid(s, k)
	want := dsptest.ConvValid(s, k)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("optical convolution differs from digital by %g", d)
	}
}

// TestPhysicalJTCEquationOneStructure verifies the three-term structure of
// paper Eq. (1): correlation band at +sep, mirrored band at -sep, and the
// non-convolution term N(x) around DC — with clear guard bands between.
func TestPhysicalJTCEquationOneStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1024
	j := NewPhysicalJTC(n)
	s := randNonNeg(rng, 40)
	k := randNonNeg(rng, 9)
	plane := j.OutputPlane(s, k)
	sep := n / 4

	// The correlation bands must mirror each other: plane[sep-l] carries
	// corr at lag l and plane[(n-sep+l)%n] carries the same value.
	for l := -(len(k) - 1); l < len(s); l++ {
		a := plane[(sep-l+n)%n]
		b := plane[(n-sep+l)%n]
		if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
			t.Fatalf("mirror symmetry broken at lag %d: %g vs %g", l, a, b)
		}
	}

	// DC term: N(x) = FT[|S|²+|K|²] is the autocorrelation energy at the
	// origin — necessarily positive and large.
	if plane[0] <= 0 {
		t.Errorf("DC term should be positive, got %g", plane[0])
	}

	// Guard bands between the three terms must be dark.
	guardLo := len(s) + 5       // past the DC autocorrelation spread
	guardHi := sep - len(s) - 5 // before the correlation band
	for m := guardLo; m < guardHi; m++ {
		if math.Abs(plane[m]) > 1e-9 {
			t.Fatalf("guard band not dark at %d: %g", m, plane[m])
		}
	}
}

// TestPhysicalJTCWithoutNonlinearityIsUseless reproduces the paper's
// observation that the Fourier-plane nonlinearity is essential: without it
// the two lenses merely mirror the input and no correlation appears.
func TestPhysicalJTCWithoutNonlinearityIsUseless(t *testing.T) {
	n := 512
	s := []float64{1, 2, 3, 4}
	k := []float64{1, 1}
	in := optics.NewField(n)
	for i, v := range s {
		in[i] = complex(v, 0)
	}
	for i, v := range k {
		in[n/4+i] = complex(v, 0)
	}
	lens := optics.Lens{Aperture: n}
	out := lens.Transform(lens.Transform(in)) // no square law between
	// The output is the parity image of the input: in[0] at out[0],
	// in[i] at out[n-i]; nothing resembling a correlation band exists.
	if math.Abs(real(out[0])-1) > 1e-9 {
		t.Errorf("parity image broken at 0: %v", out[0])
	}
	for i := 1; i < len(s); i++ {
		if math.Abs(real(out[n-i])-s[i]) > 1e-9 {
			t.Errorf("parity image broken at %d", i)
		}
	}
}

// TestPhysicalJTCLinearInSignal: the end-to-end JTC output is linear in the
// signal operand (despite the internal square law), which is what lets the
// feedback buffer's attenuated reuses be rescaled digitally (paper §4.1.1).
func TestPhysicalJTCLinearInSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	j := NewPhysicalJTC(1024)
	s := randNonNeg(rng, 30)
	k := randNonNeg(rng, 5)
	base := correlate(j.Correlate, s, k)
	scaled := make([]float64, len(s))
	for i, v := range s {
		scaled[i] = 0.37 * v
	}
	got := correlate(j.Correlate, scaled, k)
	for i := range base {
		if math.Abs(got[i]-0.37*base[i]) > 1e-9*(1+math.Abs(base[i])) {
			t.Fatalf("not linear in signal at %d", i)
		}
	}
}

// TestPhysicalJTCLossyLensesRescale: insertion losses attenuate but do not
// distort — after the known-gain rescale the correlation is still exact.
func TestPhysicalJTCLossyLensesRescale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	j := NewPhysicalJTC(1024)
	j.Lens1.InsertionLossDB = 0.5
	j.Lens2.InsertionLossDB = 0.8
	j.Nonlinear.Efficiency = 0.7
	s := randNonNeg(rng, 25)
	k := randNonNeg(rng, 6)
	got := correlate(j.Correlate, s, k)
	want := dsptest.CorrValid(s, k)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("lossy JTC after rescale differs by %g", d)
	}
}

func TestPhysicalJTCValidation(t *testing.T) {
	j := NewPhysicalJTC(256)
	cases := []func(){
		func() { correlate(j.Correlate, nil, []float64{1}) },
		func() { correlate(j.Correlate, []float64{1}, []float64{1, 2}) },
		func() { correlate(j.Correlate, randNonNeg(rand.New(rand.NewSource(6)), 100), []float64{1}) }, // exceeds N/8
		func() { correlate(j.Correlate, []float64{-1, 2}, []float64{1}) },
		func() { j.Correlate(make([]float64, 1), []float64{1, 2}, []float64{1}) },    // destination too short
		func() { j.Correlate(make([]float64, 4), []float64{1, 2, 3}, []float64{1}) }, // destination too long
	}
	for i, fn := range cases {
		func() {
			defer func() { recover() }()
			fn()
			t.Errorf("case %d: expected panic", i)
		}()
	}
}

// TestPhysicalJTCProperty cross-checks optical vs digital correlation over
// random operands and sizes.
func TestPhysicalJTCProperty(t *testing.T) {
	j := NewPhysicalJTC(2048)
	f := func(seed int64, rawLs, rawLk uint8) bool {
		ls := int(rawLs)%120 + 2
		lk := int(rawLk)%ls + 1
		if ls+lk > j.MaxOperandLen() {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		s := randNonNeg(rng, ls)
		k := randNonNeg(rng, lk)
		return maxAbsDiff(correlate(j.Correlate, s, k), dsptest.CorrValid(s, k)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPhysicalJTCCorrelate(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	j := NewPhysicalJTC(2048)
	s := randNonNeg(rng, 200)
	k := randNonNeg(rng, 25)
	dst := make([]float64, len(s)-len(k)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Correlate(dst, s, k)
	}
}
