package optics

import (
	"fmt"
	"math"
	"math/rand"
)

// DetectionMode selects how a photodetector converts field to signal.
type DetectionMode int

const (
	// DetectionLinear reports the real part of the field amplitude — the
	// convention of the paper's Eq. (1), where the detected pattern *is*
	// the convolution, and the regime temporal accumulation needs (charge
	// accumulation across cycles sums the per-cycle convolutions).
	DetectionLinear DetectionMode = iota
	// DetectionSquareLaw reports physical intensity |E|², used by the
	// noise study to bound the error the linear abstraction introduces.
	DetectionSquareLaw
)

// Photodetector converts an optical field to an electrical signal and
// optionally integrates across clock cycles (temporal accumulation,
// paper §4.1.4). Saturation models the finite detector/ADC dynamic range
// that bounds the feedback buffer's reuse count (paper §5.4.2).
type Photodetector struct {
	Mode DetectionMode
	// Responsivity scales field/intensity to signal (1 = ideal).
	Responsivity float64
	// Saturation clips the accumulated signal magnitude; 0 disables.
	Saturation float64

	accum  []float64
	cycles int
}

// NewPhotodetector returns an ideal detector in the given mode.
func NewPhotodetector(mode DetectionMode) *Photodetector {
	return &Photodetector{Mode: mode, Responsivity: 1}
}

// sample converts one field to instantaneous per-sample signal.
func (p *Photodetector) sample(f Field) []float64 {
	out := make([]float64, len(f))
	for i, e := range f {
		switch p.Mode {
		case DetectionLinear:
			out[i] = p.Responsivity * real(e)
		case DetectionSquareLaw:
			out[i] = p.Responsivity * (real(e)*real(e) + imag(e)*imag(e))
		default:
			panic(fmt.Sprintf("optics: unknown detection mode %d", p.Mode))
		}
	}
	return out
}

// Detect reads a field instantaneously without touching the accumulator.
func (p *Photodetector) Detect(f Field) []float64 {
	out := p.sample(f)
	p.clip(out)
	return out
}

// Integrate adds one cycle's field into the accumulation well.
func (p *Photodetector) Integrate(f Field) {
	s := p.sample(f)
	if p.accum == nil {
		p.accum = s
	} else {
		if len(p.accum) != len(s) {
			panic(fmt.Sprintf("optics: accumulation width changed from %d to %d", len(p.accum), len(s)))
		}
		for i, v := range s {
			p.accum[i] += v
		}
	}
	p.cycles++
}

// Readout returns the accumulated signal (clipped to Saturation) and resets
// the well — one ADC conversion after TemporalAccumulationCycles of
// integration.
func (p *Photodetector) Readout() []float64 {
	out := p.accum
	if out == nil {
		out = []float64{}
	}
	p.accum = nil
	p.cycles = 0
	p.clip(out)
	return out
}

// AccumulatedCycles reports how many cycles are in the well.
func (p *Photodetector) AccumulatedCycles() int { return p.cycles }

func (p *Photodetector) clip(s []float64) {
	if p.Saturation <= 0 {
		return
	}
	for i, v := range s {
		if v > p.Saturation {
			s[i] = p.Saturation
		} else if v < -p.Saturation {
			s[i] = -p.Saturation
		}
	}
}

// ADC quantizes detector signals to Bits of precision over [0, FullScale]
// (unipolar, as JTC outputs are non-negative before digital scaling).
type ADC struct {
	Bits      int
	FullScale float64
}

// Quantize rounds each value to the nearest of 2^Bits levels, clipping to
// the full-scale range. It returns the reconstructed (de-quantized) values.
func (a ADC) Quantize(values []float64) []float64 {
	if a.Bits <= 0 || a.Bits > 32 {
		panic(fmt.Sprintf("optics: ADC bits %d outside (0,32]", a.Bits))
	}
	if a.FullScale <= 0 {
		panic("optics: ADC full scale must be positive")
	}
	levels := float64(int64(1)<<uint(a.Bits)) - 1
	out := make([]float64, len(values))
	for i, v := range values {
		x := v / a.FullScale
		if x < 0 {
			x = 0
		} else if x > 1 {
			x = 1
		}
		out[i] = math.Round(x*levels) / levels * a.FullScale
	}
	return out
}

// StepSize returns one LSB in signal units.
func (a ADC) StepSize() float64 {
	return a.FullScale / (float64(int64(1)<<uint(a.Bits)) - 1)
}

// NoiseModel adds the analog non-idealities of §7.2 to a detected signal:
// white Gaussian read noise (thermal + amplifier), signal-dependent shot
// noise, and relative intensity noise (RIN) of the laser. All sigmas are in
// the same units as the signal; shot noise scales with sqrt(signal).
type NoiseModel struct {
	ReadSigma float64 // additive white noise sigma
	ShotCoeff float64 // shot noise sigma = ShotCoeff·sqrt(|signal|)
	RINSigma  float64 // multiplicative noise sigma (fractional)
}

// Apply adds the noise to signal in place, drawing from rng sample by
// sample in the order RIN, shot, read (each only when its sigma is
// non-zero). Shot noise scales with the noiseless sample.
func (n NoiseModel) Apply(rng *rand.Rand, signal []float64) {
	for i, v := range signal {
		x := v
		if n.RINSigma > 0 {
			x *= 1 + n.RINSigma*rng.NormFloat64()
		}
		if n.ShotCoeff > 0 {
			x += n.ShotCoeff * math.Sqrt(math.Abs(v)) * rng.NormFloat64()
		}
		if n.ReadSigma > 0 {
			x += n.ReadSigma * rng.NormFloat64()
		}
		signal[i] = x
	}
}
