package noise

import (
	"math"
	"testing"

	"refocus/internal/jtc"
	"refocus/internal/optics"
)

// TestFixedPatternDeterministic: the same device seed always yields the
// same detector gains; different devices differ.
func TestFixedPatternDeterministic(t *testing.T) {
	sig := []float64{1, 2, 3, 4, 5, 6}
	k := []float64{1, 1}
	a := correlate(FixedPatternCorrelator(jtc.DigitalCorrelator, 0.2, 11), sig, k)
	b := correlate(FixedPatternCorrelator(jtc.DigitalCorrelator, 0.2, 11), sig, k)
	c := correlate(FixedPatternCorrelator(jtc.DigitalCorrelator, 0.2, 12), sig, k)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same device produced different gains")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different devices produced identical gains")
	}
	// Zero mismatch is the identity.
	ideal := correlate(FixedPatternCorrelator(jtc.DigitalCorrelator, 0, 11), sig, k)
	want := correlate(jtc.DigitalCorrelator, sig, k)
	for i := range want {
		if math.Abs(ideal[i]-want[i]) > 1e-12 {
			t.Error("zero-sigma fixed pattern altered the signal")
		}
	}
}

// TestTrainingCompensation reproduces the §7.2 claim end to end: a network
// trained through a model of its device's non-idealities (fixed-pattern
// detector gains + read noise) recovers the accuracy a conventionally
// trained network loses on that device.
func TestTrainingCompensation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two CNNs")
	}
	model := optics.NoiseModel{ReadSigma: 0.05}
	for _, seed := range []int64{7, 99} {
		r := TrainingCompensation(seed, 0.3, model)
		if r.CleanTrainCleanEval < 0.95 {
			t.Fatalf("seed %d: baseline training failed (%.2f)", seed, r.CleanTrainCleanEval)
		}
		if r.CleanTrainNoisyEval >= r.CleanTrainCleanEval {
			t.Errorf("seed %d: the device should cost the clean-trained net accuracy (%.2f vs %.2f)",
				seed, r.CleanTrainNoisyEval, r.CleanTrainCleanEval)
		}
		if r.NoisyTrainNoisyEval < r.CleanTrainNoisyEval {
			t.Errorf("seed %d: device-aware training should not be worse on the device: %.2f vs %.2f",
				seed, r.NoisyTrainNoisyEval, r.CleanTrainNoisyEval)
		}
		if r.Recovered < 0.5 {
			t.Errorf("seed %d: recovered only %.0f%% of the drop; §7.2 expects the network to absorb it",
				seed, r.Recovered*100)
		}
	}
}
