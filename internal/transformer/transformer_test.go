package transformer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"refocus/internal/dataflow"
	"refocus/internal/dsp/dsptest"
	"refocus/internal/jtc"
	"refocus/internal/optics"
)

func randBlock(rng *rand.Rand, l, d int) [][]float64 {
	x := make([][]float64, l)
	for t := range x {
		x[t] = make([]float64, d)
		for j := range x[t] {
			x[t][j] = rng.NormFloat64()
		}
	}
	return x
}

func maxDiff(a, b [][]float64) float64 {
	var m float64
	for t := range a {
		for j := range a[t] {
			if d := math.Abs(a[t][j] - b[t][j]); d > m {
				m = d
			}
		}
	}
	return m
}

// TestFNetMixMatchesDefinition: the mixer equals the published definition
// Re(FFT_seq(FFT_hidden(x))) computed from first principles.
func TestFNetMixMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, d := 16, 8
	x := randBlock(rng, l, d)
	got := FNetMix(x)

	// Brute-force 2-D DFT, real part.
	want := make([][]float64, l)
	for t2 := range want {
		want[t2] = make([]float64, d)
	}
	for u := 0; u < l; u++ {
		for v := 0; v < d; v++ {
			var sum complex128
			for a := 0; a < l; a++ {
				for b := 0; b < d; b++ {
					ang := -2 * math.Pi * (float64(u*a)/float64(l) + float64(v*b)/float64(d))
					sum += complex(x[a][b], 0) * complex(math.Cos(ang), math.Sin(ang))
				}
			}
			want[u][v] = real(sum)
		}
	}
	if dd := maxDiff(got, want); dd > 1e-8 {
		t.Errorf("FNetMix differs from the 2-D DFT definition by %g", dd)
	}
}

// TestFNetMixOpticalMatchesDigital: the lens-computed sequence transform
// reproduces the digital mixer exactly — the §7.4 point that FNet's mixing
// is the JTC lens's native operation.
func TestFNetMixOpticalMatchesDigital(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ l, d int }{{8, 4}, {64, 16}, {128, 32}} {
		x := randBlock(rng, tc.l, tc.d)
		digital := FNetMix(x)
		optical := FNetMixOptical(x, optics.Lens{Aperture: tc.l})
		if dd := maxDiff(digital, optical); dd > 1e-8 {
			t.Errorf("l=%d d=%d: optical mixing differs by %g", tc.l, tc.d, dd)
		}
	}
}

// TestFNetMixIdempotentStructure: mixing twice relates to the identity up
// to parity and scale for a real input — a sanity property of the double
// Fourier transform (not asserted exactly; we check linearity instead).
func TestFNetMixLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randBlock(rng, 8, 4)
		y := randBlock(rng, 8, 4)
		sum := make([][]float64, 8)
		for t2 := range sum {
			sum[t2] = make([]float64, 4)
			for j := range sum[t2] {
				sum[t2][j] = 2*x[t2][j] - 3*y[t2][j]
			}
		}
		mx, my, ms := FNetMix(x), FNetMix(y), FNetMix(sum)
		for t2 := range ms {
			for j := range ms[t2] {
				if math.Abs(ms[t2][j]-(2*mx[t2][j]-3*my[t2][j])) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSequenceConvMatchesReference: the depthwise sequence convolution
// equals per-channel dsp correlation, and works through real light.
func TestSequenceConvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, d, k := 24, 6, 5
	x := make([][]float64, l)
	for t2 := range x {
		x[t2] = make([]float64, d)
		for j := range x[t2] {
			x[t2][j] = rng.Float64() // non-negative for the optical path
		}
	}
	kernels := make([][]float64, d)
	for j := range kernels {
		kernels[j] = make([]float64, k)
		for i := range kernels[j] {
			kernels[j][i] = rng.Float64()
		}
	}
	digital := SequenceConv(x, kernels, jtc.DigitalCorrelator)
	for j := 0; j < d; j++ {
		col := make([]float64, l)
		for t2 := 0; t2 < l; t2++ {
			col[t2] = x[t2][j]
		}
		want := dsptest.CorrValid(col, kernels[j])
		for t2 := range want {
			if math.Abs(digital[t2][j]-want[t2]) > 1e-12 {
				t.Fatalf("channel %d position %d: %g vs %g", j, t2, digital[t2][j], want[t2])
			}
		}
	}
	phys := jtc.NewPhysicalJTC(512)
	optical := SequenceConv(x, kernels, phys.Correlate)
	if dd := maxDiff(digital, optical); dd > 1e-8 {
		t.Errorf("light-computed sequence conv differs by %g", dd)
	}
}

// TestMixingEventsScaling: cost scales linearly in tokens×hidden for the
// conversions and sublinearly in cycles thanks to RFCU/WDM parallelism.
func TestMixingEventsScaling(t *testing.T) {
	cfg := dataflow.Config{NRFCU: 16, T: 256, WeightWaveguides: 25, NLambda: 2, M: 16}
	small := MixingEvents(128, 256, cfg)
	big := MixingEvents(128, 512, cfg)
	if r := big.InputDACWrites / small.InputDACWrites; r != 2 {
		t.Errorf("conversions should double with hidden size, got %g", r)
	}
	if big.Cycles < small.Cycles {
		t.Error("cycles should not shrink with more work")
	}
	if small.WeightDACWrites != 0 {
		t.Error("Fourier mixing has no weights — the lens is passive")
	}
	// One RFCU-group pass per 32 columns: 256 hidden / 32 = 8 cycles for a
	// 128-token (single-tile) block.
	if small.Cycles != 8 {
		t.Errorf("128×256 mixing cycles = %g, want 8", small.Cycles)
	}
}

func TestValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { FNetMix([][]float64{}) },
		func() { FNetMix([][]float64{{1, 2}, {1}}) },
		func() { FNetMixOptical(randBlock(rand.New(rand.NewSource(4)), 16, 2), optics.Lens{Aperture: 8}) },
		func() {
			SequenceConv(randBlock(rand.New(rand.NewSource(5)), 4, 2), [][]float64{{1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}}, jtc.DigitalCorrelator)
		},
		func() { MixingEvents(0, 8, dataflow.Config{NRFCU: 1, T: 256, WeightWaveguides: 25, NLambda: 1, M: 1}) },
	} {
		func() {
			defer func() { recover() }()
			fn()
			t.Errorf("case %d: expected panic", i)
		}()
	}
}

func BenchmarkFNetMixOptical(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randBlock(rng, 128, 64)
	lens := optics.Lens{Aperture: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FNetMixOptical(x, lens)
	}
}
