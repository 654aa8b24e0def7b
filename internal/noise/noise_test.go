package noise

import (
	"math/rand"
	"testing"

	"refocus/internal/jtc"
	"refocus/internal/nn"
	"refocus/internal/optics"
	"refocus/internal/tensor"
)

// correlate runs corr into a fresh destination.
func correlate(corr jtc.Correlator, signal, kernel []float64) []float64 {
	out := make([]float64, len(signal)-len(kernel)+1)
	corr(out, signal, kernel)
	return out
}

// TestTemplateClassifierPerfectWhenClean: with no input or detector noise
// the correlation peak always identifies the right template.
func TestTemplateClassifierPerfectWhenClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tc := NewTemplateClassifier(rng, 4, 24)
	acc := tc.Accuracy(rng, jtc.DigitalCorrelator, 100, 48, 0)
	if acc != 1.0 {
		t.Errorf("clean accuracy = %g, want 1", acc)
	}
}

// TestTemplateClassifierOnPhysicalJTC: the task works end-to-end through
// simulated light.
func TestTemplateClassifierOnPhysicalJTC(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tc := NewTemplateClassifier(rng, 3, 16)
	phys := jtc.NewPhysicalJTC(1024)
	acc := tc.Accuracy(rng, phys.Correlate, 50, 40, 0.02)
	if acc < 0.95 {
		t.Errorf("physical-JTC accuracy = %g, want ≥0.95 at mild noise", acc)
	}
}

// TestAccuracyDegradesWithDetectorNoise: increasing detector read noise
// monotonically (in the large) erodes accuracy, and small noise is
// tolerated — the premise behind §7.2's claim that noise can be modelled
// and compensated rather than avoided.
func TestAccuracyDegradesWithDetectorNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tc := NewTemplateClassifier(rng, 4, 24)
	measure := func(readSigma float64) float64 {
		corr := NoisyCorrelator(jtc.DigitalCorrelator, optics.NoiseModel{ReadSigma: readSigma}, rand.New(rand.NewSource(4)))
		return tc.Accuracy(rand.New(rand.NewSource(5)), corr, 200, 48, 0.05)
	}
	clean := measure(0)
	mild := measure(0.05)
	harsh := measure(5.0)
	if clean < 0.99 {
		t.Errorf("near-clean accuracy = %g", clean)
	}
	if mild < 0.9 {
		t.Errorf("mild detector noise collapsed accuracy to %g", mild)
	}
	if harsh >= mild {
		t.Errorf("harsh noise (%g) should hurt more than mild (%g)", harsh, mild)
	}
	if harsh > 0.6 {
		t.Errorf("harsh noise accuracy %g suspiciously high", harsh)
	}
}

// TestNoisyCorrelatorPreservesShape: the wrapper only perturbs values.
func TestNoisyCorrelatorPreservesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	corr := NoisyCorrelator(jtc.DigitalCorrelator, optics.NoiseModel{ReadSigma: 0.1}, rng)
	sig := []float64{1, 2, 3, 4, 5}
	k := []float64{1, 1}
	out := correlate(corr, sig, k)
	want := correlate(jtc.DigitalCorrelator, sig, k)
	if len(out) != len(want) {
		t.Fatalf("length %d, want %d", len(out), len(want))
	}
	same := true
	for i := range out {
		if out[i] != want[i] {
			same = false
		}
	}
	if same {
		t.Error("noisy correlator returned the exact clean values")
	}
}

// TestSmallNetDeviationGrowsWithNoise: end-to-end CNN logit deviation
// scales with the injected detector noise and vanishes without it.
func TestSmallNetDeviationGrowsWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := nn.RandomSmallNet(rng, 3, 16, 10)
	input := tensor.New(3, 16, 16)
	for i := range input.Data {
		input.Data[i] = rng.Float64()
	}
	zero := SmallNetDeviation(net, input, optics.NoiseModel{}, rand.New(rand.NewSource(8)))
	if zero > 1e-9 {
		t.Errorf("zero noise deviation = %g, want 0", zero)
	}
	small := SmallNetDeviation(net, input, optics.NoiseModel{ReadSigma: 1e-4}, rand.New(rand.NewSource(9)))
	large := SmallNetDeviation(net, input, optics.NoiseModel{ReadSigma: 1e-2}, rand.New(rand.NewSource(9)))
	if small <= 0 {
		t.Error("small noise produced no deviation")
	}
	if large <= small {
		t.Errorf("deviation should grow with noise: %g vs %g", large, small)
	}
}

// TestShotNoiseHurtsStrongSignalsMore: shot noise is signal-dependent, so
// its absolute perturbation grows with the correlation magnitude.
func TestShotNoiseHurtsStrongSignalsMore(t *testing.T) {
	model := optics.NoiseModel{ShotCoeff: 0.1}
	measure := func(scale float64) float64 {
		rng := rand.New(rand.NewSource(10))
		sig := make([]float64, 64)
		for i := range sig {
			sig[i] = scale
		}
		k := []float64{1, 1, 1}
		clean := correlate(jtc.DigitalCorrelator, sig, k)
		noisy := correlate(NoisyCorrelator(jtc.DigitalCorrelator, model, rng), sig, k)
		var dev float64
		for i := range clean {
			if d := noisy[i] - clean[i]; d > dev || -d > dev {
				if d < 0 {
					d = -d
				}
				dev = d
			}
		}
		return dev
	}
	weak, strong := measure(0.1), measure(10)
	if strong <= weak {
		t.Errorf("shot noise on strong signal (%g) should exceed weak (%g)", strong, weak)
	}
}

func TestTemplateClassifierValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	func() {
		defer func() { recover() }()
		NewTemplateClassifier(rng, 1, 8)
		t.Error("expected panic for single class")
	}()
	tc := NewTemplateClassifier(rng, 2, 8)
	func() {
		defer func() { recover() }()
		tc.Sample(rng, 0, 4, 0)
		t.Error("expected panic for short signal")
	}()
}

func BenchmarkTemplateClassifier(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	tc := NewTemplateClassifier(rng, 4, 24)
	sig := tc.Sample(rng, 1, 48, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Classify(sig, jtc.DigitalCorrelator)
	}
}
