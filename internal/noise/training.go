package noise

import (
	"math/rand"

	"refocus/internal/jtc"
	"refocus/internal/nn"
	"refocus/internal/optics"
	"refocus/internal/tensor"
)

// CompensationResult is the §7.2 experiment: does injecting the photonic
// noise model during training let the network absorb it at inference?
type CompensationResult struct {
	// CleanTrainCleanEval is the baseline accuracy (digital everywhere).
	CleanTrainCleanEval float64
	// CleanTrainNoisyEval: a conventionally trained net deployed on the
	// noisy photonic datapath.
	CleanTrainNoisyEval float64
	// NoisyTrainNoisyEval: the same architecture trained with the noise
	// model injected into its forward passes, deployed identically.
	NoisyTrainNoisyEval float64
	// Recovered is the fraction of the noise-induced accuracy drop that
	// noise-aware training recovers.
	Recovered float64
}

// DeviceConv builds a ConvFunc running through a JTC engine whose
// correlator carries the device's fixed-pattern detector gains plus the
// stochastic noise model (quantization off, isolating the analog
// effects). deviceSeed fixes the device's calibration — the same seed
// always yields the same fixed-pattern gains — while rng drives the
// stochastic per-readout noise. The robustness campaigns build one of
// these per Monte Carlo trial, seeded from the trial, so accuracy
// results are reproducible independent of execution order.
func DeviceConv(sigmaFixed float64, deviceSeed int64, model optics.NoiseModel, rng *rand.Rand) nn.ConvFunc {
	cfg := jtc.DefaultEngineConfig()
	cfg.Quant = jtc.QuantConfig{}
	corr := FixedPatternCorrelator(jtc.DigitalCorrelator, sigmaFixed, deviceSeed)
	cfg.Correlator = NoisyCorrelator(corr, model, rng)
	cfg.Parallelism = 1 // the noisy correlator draws from one unsynchronized rng
	return nn.JTCConv(jtc.NewEngine(cfg))
}

// ConfusableTask builds a deliberately hard variant of the prototype task:
// all classes share a common base pattern and differ only by a small
// class-specific delta, so decision margins are thin and analog noise
// actually costs accuracy (the easy task of nn.SyntheticTask is solved
// perfectly even under heavy noise — margins absorb it). Deterministic
// for a given rng state.
func ConfusableTask(rng *rand.Rand, classes, size, trainN, testN int, delta, pixelNoise float64) (train, test []nn.TrainSample) {
	base := make([]float64, size*size)
	for i := range base {
		if rng.Float64() < 0.4 {
			base[i] = 0.5 + rng.Float64()
		}
	}
	protos := make([][]float64, classes)
	for k := range protos {
		p := append([]float64(nil), base...)
		for i := range p {
			if rng.Float64() < 0.25 {
				p[i] += delta * rng.NormFloat64()
				if p[i] < 0 {
					p[i] = 0
				}
			}
		}
		protos[k] = p
	}
	mk := func(n int) []nn.TrainSample {
		out := make([]nn.TrainSample, n)
		for i := range out {
			k := rng.Intn(classes)
			x := tensorFrom(protos[k], size)
			for j := range x.Input.Data {
				x.Input.Data[j] += pixelNoise * rng.NormFloat64()
				if x.Input.Data[j] < 0 {
					x.Input.Data[j] = 0
				}
			}
			x.Label = k
			out[i] = x
		}
		return out
	}
	return mk(trainN), mk(testN)
}

func tensorFrom(flat []float64, size int) nn.TrainSample {
	t := nn.TrainSample{Input: tensor.New(1, size, size)}
	copy(t.Input.Data, flat)
	return t
}

// TrainingCompensation runs the experiment: a confusable prototype-
// classification task, one net trained digitally, one trained with the
// noisy photonic forward (gradients straight-through), both evaluated on
// the noisy datapath. Deterministic for a given seed.
func TrainingCompensation(seed int64, sigmaFixed float64, model optics.NoiseModel) CompensationResult {
	rng := rand.New(rand.NewSource(seed))
	train, test := ConfusableTask(rng, 4, 8, 96, 80, 0.6, 0.15)
	deviceSeed := seed * 31

	clean := nn.NewTrainableNet(rand.New(rand.NewSource(seed+1)), 1, 4, 8, 4)
	clean.Train(train, nn.ReferenceConv, 0.05, 12, rand.New(rand.NewSource(seed+2)))

	// The noise-aware net trains through a model of the *same device*
	// (its calibrated fixed pattern) plus stochastic noise.
	aware := nn.NewTrainableNet(rand.New(rand.NewSource(seed+1)), 1, 4, 8, 4)
	aware.Train(train, DeviceConv(sigmaFixed, deviceSeed, model, rand.New(rand.NewSource(seed+3))), 0.05, 12, rand.New(rand.NewSource(seed+2)))

	evalConv := func(s int64) nn.ConvFunc {
		return DeviceConv(sigmaFixed, deviceSeed, model, rand.New(rand.NewSource(s)))
	}
	res := CompensationResult{
		CleanTrainCleanEval: clean.Accuracy(test, nn.ReferenceConv),
		CleanTrainNoisyEval: clean.Accuracy(test, evalConv(seed+4)),
		NoisyTrainNoisyEval: aware.Accuracy(test, evalConv(seed+4)),
	}
	drop := res.CleanTrainCleanEval - res.CleanTrainNoisyEval
	if drop > 0 {
		res.Recovered = (res.NoisyTrainNoisyEval - res.CleanTrainNoisyEval) / drop
	}
	return res
}
