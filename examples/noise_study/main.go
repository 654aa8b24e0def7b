// noise_study runs the §7.2 analysis: how the photonic datapath's analog
// noise affects inference. Two experiments: (1) classic JTC template
// recognition — accuracy vs detector read noise, computed both with the
// fast functional correlator and through the field-level physical JTC; and
// (2) a small CNN executed on the JTC engine — logit deviation vs noise
// level, showing the margin noise-aware training would need to absorb.
//
// -seed reseeds every random draw in the study (task, device, noise),
// so two runs with the same seed print identical tables and different
// seeds give an honest sense of the run-to-run spread.
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"refocus/internal/jtc"
	"refocus/internal/nn"
	"refocus/internal/noise"
	"refocus/internal/optics"
	"refocus/internal/tensor"
)

func main() {
	seed := flag.Int64("seed", 1, "base seed for every random draw in the study")
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	fmt.Println("=== JTC template recognition under detector noise ===")
	tc := noise.NewTemplateClassifier(rng, 6, 24)
	phys := jtc.NewPhysicalJTC(1024)
	fmt.Println("read-noise σ   accuracy (functional)   accuracy (physical JTC)")
	for _, sigma := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.5} {
		model := optics.NoiseModel{ReadSigma: sigma, ShotCoeff: sigma / 4}
		fn := noise.NoisyCorrelator(jtc.DigitalCorrelator, model, rand.New(rand.NewSource(*seed+1)))
		ph := noise.NoisyCorrelator(phys.Correlate, model, rand.New(rand.NewSource(*seed+1)))
		accF := tc.Accuracy(rand.New(rand.NewSource(*seed+2)), fn, 300, 48, 0.05)
		accP := tc.Accuracy(rand.New(rand.NewSource(*seed+2)), ph, 100, 48, 0.05)
		fmt.Printf("%-13.2f %-23.3f %.3f\n", sigma, accF, accP)
	}

	fmt.Println("\n=== small CNN logit deviation under detector noise ===")
	net := nn.RandomSmallNet(rng, 3, 16, 10)
	input := tensor.New(3, 16, 16)
	for i := range input.Data {
		input.Data[i] = rng.Float64()
	}
	ref := net.Forward(input, nn.ReferenceConv)
	fmt.Printf("clean logit range: ±%.4f\n", ref.MaxAbs())
	fmt.Println("read-noise σ   max logit deviation   class flips (of 20 inputs)")
	for _, sigma := range []float64{0, 1e-4, 1e-3, 1e-2, 5e-2} {
		model := optics.NoiseModel{ReadSigma: sigma}
		dev := noise.SmallNetDeviation(net, input, model, rand.New(rand.NewSource(*seed+3)))
		flips := 0
		for i := 0; i < 20; i++ {
			in := tensor.New(3, 16, 16)
			r2 := rand.New(rand.NewSource(*seed + int64(100+i)))
			for j := range in.Data {
				in.Data[j] = r2.Float64()
			}
			cfg := jtc.DefaultEngineConfig()
			cfg.Quant = jtc.QuantConfig{}
			cfg.Correlator = noise.NoisyCorrelator(jtc.DigitalCorrelator, model, rand.New(rand.NewSource(*seed+int64(200+i))))
			cfg.Parallelism = 1 // the noisy correlator draws from one unsynchronized rng
			noisy := net.Forward(in, nn.JTCConv(jtc.NewEngine(cfg)))
			if nn.Argmax(noisy) != nn.Argmax(net.Forward(in, nn.ReferenceConv)) {
				flips++
			}
		}
		fmt.Printf("%-13.0e %-21.5f %d\n", sigma, dev, flips)
	}
	fmt.Println("\nthe paper's §7.2 position: these deviations are systematic enough to model")
	fmt.Println("and inject during training, letting the network absorb them.")
}
