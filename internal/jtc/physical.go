// Package jtc implements the Joint Transform Correlator at two levels.
//
// PhysicalJTC composes the optics-package components into the five-element
// pipeline of paper Figure 1 — input plane, first lens, square-law
// nonlinearity, second lens, detector — and extracts the correlation terms
// of paper Eq. (1) from the output plane. It exists to prove the
// architecture's functional premise from first principles (field in,
// convolution out) and to host the noise studies.
//
// Engine (engine.go / conv2d.go) is the fast functional model: it performs
// the same row-tiled 2-D convolution the hardware would, with quantization,
// pseudo-negative filters, WDM channel pairs and temporal accumulation, and
// is validated both against the digital reference and against PhysicalJTC.
package jtc

import (
	"fmt"
	"math"

	"refocus/internal/optics"
)

// PhysicalJTC is a 1-D on-chip JTC simulated at the complex-field level.
//
// The input plane carries the signal s and kernel k side by side at a fixed
// separation; the Fourier-plane square law turns their joint spectrum into
// interference fringes whose second transform yields cross-correlation
// terms at mirrored offsets (Weaver & Goodman 1966; paper Eq. 1):
//
//	s ⋆ k at +sep, (s ⋆ k) mirrored at -sep, and a DC term N(x) at 0,
//
// where the DC term is spatially filtered out by reading only the
// correlation band.
type PhysicalJTC struct {
	// Aperture is the lens aperture in spatial samples. Correlate requires
	// the operands plus guard bands to fit (see MaxOperandLen).
	Aperture int
	// Lens1, Lens2 are the two Fourier lenses.
	Lens1, Lens2 optics.Lens
	// Nonlinear is the Fourier-plane square-law element.
	Nonlinear optics.SquareLawMaterial
	// Detector reads the output plane. Defaults to an ideal linear
	// detector when nil (the Eq.-1 convention).
	Detector *optics.Photodetector
}

// NewPhysicalJTC builds an ideal (lossless, noiseless) JTC with the given
// aperture, which must be a positive power-of-two-friendly size (any
// positive value works; powers of two are fastest).
func NewPhysicalJTC(aperture int) *PhysicalJTC {
	if aperture < 8 {
		panic(fmt.Sprintf("jtc: aperture %d too small", aperture))
	}
	return &PhysicalJTC{
		Aperture: aperture,
		Lens1:    optics.Lens{Aperture: aperture},
		Lens2:    optics.Lens{Aperture: aperture},
	}
}

// MaxOperandLen returns the largest combined operand length len(s)+len(k)
// the aperture can host without the correlation band (at N/4), its mirror
// (at 3N/4), and the central DC autocorrelation term overlapping. The DC
// term alone spreads ±(len(s)-1) around the origin and each correlation
// band spans len(s)+len(k)-1 samples, so operands must fit in an eighth of
// the aperture — the "spatially filtered out" guard band of paper Eq. (1).
func (j *PhysicalJTC) MaxOperandLen() int { return j.Aperture / 8 }

// Correlate computes the valid cross-correlation of signal with kernel
// (dst[i] = Σ_j signal[i+j]·kernel[j], len(dst) = len(signal)-len(kernel)+1)
// by light propagation; it is a Correlator. Both operands must be
// non-negative (amplitude-encoded); their combined length must not exceed
// MaxOperandLen. The fields it propagates are allocated per call.
func (j *PhysicalJTC) Correlate(dst, signal, kernel []float64) {
	ls, lk := len(signal), len(kernel)
	if lk == 0 || ls == 0 {
		panic("jtc: empty operand")
	}
	if lk > ls {
		panic(fmt.Sprintf("jtc: kernel length %d exceeds signal length %d", lk, ls))
	}
	if len(dst) != ls-lk+1 {
		panic(fmt.Sprintf("jtc: destination holds %d samples, want %d", len(dst), ls-lk+1))
	}
	if ls+lk > j.MaxOperandLen() {
		panic(fmt.Sprintf("jtc: operands of %d samples exceed aperture capacity %d", ls+lk, j.MaxOperandLen()))
	}
	n := j.Aperture
	sep := n / 4 // kernel offset; correlation band lands centred here

	// Input plane: s at the origin, k at +sep.
	in := optics.NewField(n)
	for i, v := range signal {
		if v < 0 {
			panic(fmt.Sprintf("jtc: negative signal value %g", v))
		}
		in[i] = complex(v, 0)
	}
	for i, v := range kernel {
		if v < 0 {
			panic(fmt.Sprintf("jtc: negative kernel value %g", v))
		}
		in[sep+i] = complex(v, 0)
	}

	// The five-element pipeline of Figure 1.
	fourierPlane := j.Lens1.Transform(in)
	jps := j.Nonlinear.Apply(fourierPlane) // joint power spectrum
	outPlane := j.Lens2.Transform(jps)

	det := j.Detector
	if det == nil {
		det = optics.NewPhotodetector(optics.DetectionLinear)
	}
	signalOut := det.Detect(outPlane)

	// Extract the correlation band. With s at 0 and k at +sep, the term
	// S·K*·exp(-2πiu·(-sep)/N) transforms to corr(s,k) read at output
	// index m = sep - lag. Rescale by the known pipeline gain: each
	// unitary lens contributes 1/√N relative to a raw DFT, the square law
	// doubles lens-1's amplitude factor, and the raw DFT∘|·|²∘DFT
	// composition carries N, so the net correlation amplitude is
	// a1²·a2·corr/√N with a1,a2 the lens amplitude transmissions.
	a1 := math.Pow(10, -j.Lens1.InsertionLossDB/20)
	a2 := math.Pow(10, -j.Lens2.InsertionLossDB/20)
	eff := j.Nonlinear.Efficiency
	if eff == 0 {
		eff = 1
	}
	gain := a1 * a1 * a2 * eff / math.Sqrt(float64(n))
	for lag := range dst {
		m := (sep - lag + n) % n
		dst[lag] = signalOut[m] / gain
	}
}

// ConvolveValid computes the valid linear convolution of signal with kernel
// optically, by correlating with the flipped kernel.
func (j *PhysicalJTC) ConvolveValid(signal, kernel []float64) []float64 {
	flipped := make([]float64, len(kernel))
	for i, v := range kernel {
		flipped[len(kernel)-1-i] = v
	}
	// A kernel longer than the signal gets Correlate's own panic.
	out := make([]float64, max(len(signal)-len(kernel)+1, 0))
	j.Correlate(out, signal, flipped)
	return out
}

// OutputPlane runs the pipeline and returns the raw detected output plane
// without band extraction — used by tests to verify the Eq.-1 structure
// (mirrored correlation terms plus the central N(x) term).
func (j *PhysicalJTC) OutputPlane(signal, kernel []float64) []float64 {
	ls, lk := len(signal), len(kernel)
	if ls+lk > j.MaxOperandLen() {
		panic("jtc: operands exceed aperture capacity")
	}
	n := j.Aperture
	sep := n / 4
	in := optics.NewField(n)
	for i, v := range signal {
		in[i] = complex(v, 0)
	}
	for i, v := range kernel {
		in[sep+i] = complex(v, 0)
	}
	jps := j.Nonlinear.Apply(j.Lens1.Transform(in))
	outPlane := j.Lens2.Transform(jps)
	det := j.Detector
	if det == nil {
		det = optics.NewPhotodetector(optics.DetectionLinear)
	}
	return det.Detect(outPlane)
}
