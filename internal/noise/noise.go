// Package noise implements the §7.2 study: injecting the analog
// non-idealities of the photonic datapath (detector read noise, shot
// noise, laser RIN) into the JTC and measuring their effect on inference.
//
// As the paper reports no accuracy benchmarks, the harness exercises the
// mechanisms on two tasks that isolate them: template classification by
// optical correlation (the classic JTC workload, where the decision is the
// correlation peak) and SmallNet CNN inference with a noisy correlator.
package noise

import (
	"fmt"
	"math"
	"math/rand"

	"refocus/internal/jtc"
	"refocus/internal/nn"
	"refocus/internal/optics"
	"refocus/internal/tensor"
)

// NoisyCorrelator wraps a correlator with detector-referred noise: every
// output sample of every pass picks up the configured read/shot/RIN noise,
// exactly as a photodetector array would add it before the ADC. The noise
// is applied in place to base's output in dst. It draws from rng without
// locking, so an engine running it must set Parallelism = 1.
func NoisyCorrelator(base jtc.Correlator, model optics.NoiseModel, rng *rand.Rand) jtc.Correlator {
	return func(dst, signal, kernel []float64) {
		base(dst, signal, kernel)
		model.Apply(rng, dst)
	}
}

// FixedPatternCorrelator wraps a correlator with a static per-detector
// gain error: detector i reads gain[i]× its true signal, with gains drawn
// once from N(1, sigma²) — the fabrication mismatch and responsivity
// variation that §7.2 proposes to handle by "modeling and injecting noise
// during training". The pattern is a property of the device (seeded), not
// of the run: the same deviceSeed always yields the same detectors. The
// gains are applied in place to base's output in dst.
func FixedPatternCorrelator(base jtc.Correlator, sigma float64, deviceSeed int64) jtc.Correlator {
	const maxDetectors = 4096
	rng := rand.New(rand.NewSource(deviceSeed))
	gains := make([]float64, maxDetectors)
	for i := range gains {
		gains[i] = 1 + sigma*rng.NormFloat64()
	}
	return func(dst, signal, kernel []float64) {
		if len(dst) > maxDetectors {
			panic("noise: output exceeds the modelled detector array")
		}
		base(dst, signal, kernel)
		for i := range dst {
			dst[i] *= gains[i]
		}
	}
}

// TemplateClassifier recognizes which of K non-negative templates an input
// contains by optical correlation: the class whose template yields the
// highest correlation peak wins. This is the object-recognition task JTCs
// were historically built for [25, 37, 57].
type TemplateClassifier struct {
	Templates [][]float64
}

// NewTemplateClassifier draws K random non-negative templates of the given
// length. Templates are sparse (≈30% support) and unit-norm: dense
// all-positive patterns would correlate strongly with each other (optical
// amplitudes cannot be zero-mean), which is why practical JTC pattern
// banks use sparse or edge-enhanced references [25].
func NewTemplateClassifier(rng *rand.Rand, classes, length int) *TemplateClassifier {
	if classes < 2 || length < 2 {
		panic("noise: need at least 2 classes and 2 samples")
	}
	t := &TemplateClassifier{Templates: make([][]float64, classes)}
	for c := range t.Templates {
		tpl := make([]float64, length)
		var norm float64
		for i := range tpl {
			if rng.Float64() < 0.3 {
				tpl[i] = 0.5 + rng.Float64()
				norm += tpl[i] * tpl[i]
			}
		}
		if norm == 0 {
			tpl[rng.Intn(length)] = 1
			norm = 1
		}
		inv := 1 / math.Sqrt(norm)
		for i := range tpl {
			tpl[i] *= inv
		}
		t.Templates[c] = tpl
	}
	return t
}

// Sample synthesizes a noisy instance of class c embedded at a random
// offset in a signal of the given length (clipped non-negative, as optical
// amplitudes must be).
func (t *TemplateClassifier) Sample(rng *rand.Rand, c int, signalLen int, inputNoise float64) []float64 {
	tpl := t.Templates[c]
	if signalLen < len(tpl) {
		panic(fmt.Sprintf("noise: signal length %d below template length %d", signalLen, len(tpl)))
	}
	sig := make([]float64, signalLen)
	off := 0
	if signalLen > len(tpl) {
		off = rng.Intn(signalLen - len(tpl))
	}
	for i, v := range tpl {
		sig[off+i] = v
	}
	for i := range sig {
		sig[i] += inputNoise * rng.NormFloat64()
		if sig[i] < 0 {
			sig[i] = 0
		}
	}
	return sig
}

// Classify returns the class with the highest correlation peak, computed
// through the supplied correlator (digital reference, physical JTC, or a
// noisy wrapper).
func (t *TemplateClassifier) Classify(signal []float64, corr jtc.Correlator) int {
	best, bi := -1.0, 0
	var out []float64
	for c, tpl := range t.Templates {
		// Templates may differ in length; one longer than the signal
		// gets the correlator's own panic.
		n := max(len(signal)-len(tpl)+1, 0)
		if cap(out) < n {
			out = make([]float64, n)
		}
		out = out[:n]
		corr(out, signal, tpl)
		for _, v := range out {
			if v > best {
				best, bi = v, c
			}
		}
	}
	return bi
}

// Accuracy measures classification accuracy over trials sampled with the
// given input noise, classified through corr.
func (t *TemplateClassifier) Accuracy(rng *rand.Rand, corr jtc.Correlator, trials, signalLen int, inputNoise float64) float64 {
	correct := 0
	for i := 0; i < trials; i++ {
		c := rng.Intn(len(t.Templates))
		sig := t.Sample(rng, c, signalLen, inputNoise)
		if t.Classify(sig, corr) == c {
			correct++
		}
	}
	return float64(correct) / float64(trials)
}

// SmallNetDeviation runs a SmallNet forward pass through a JTC engine
// whose correlator carries the given noise model and returns the max-abs
// logit deviation from the exact digital reference — the end-to-end
// sensitivity that §7.2's noise-aware training compensates.
func SmallNetDeviation(net *nn.SmallNet, input *tensor.Tensor, model optics.NoiseModel, rng *rand.Rand) float64 {
	ref := net.Forward(input, nn.ReferenceConv)

	cfg := jtc.DefaultEngineConfig()
	cfg.Quant = jtc.QuantConfig{} // isolate analog noise from quantization
	cfg.Correlator = NoisyCorrelator(jtc.DigitalCorrelator, model, rng)
	cfg.Parallelism = 1 // the noisy correlator draws from one unsynchronized rng
	noisy := net.Forward(input, nn.JTCConv(jtc.NewEngine(cfg)))

	return tensor.MaxAbsDiff(ref, noisy)
}
