package jtc

import (
	"fmt"
	"math"

	"refocus/internal/dsp"
)

// This file reproduces the §4.2.3 wavelength-count study from physics.
//
// Two chromatic effects matter for WDM through shared lenses:
//
//  1. Position dispersion — a lens maps frequency to position as
//     u = x/(λf). For a *matched pair* of transforms this cancels: the
//     joint power spectrum forms stretched by λ/λ0, and the second lens
//     un-stretches it, so each channel's correlation band lands at the
//     same detector positions (verified in tests via the chirp-z model).
//  2. Chromatic defocus — metasurface/diffractive lenses focus at
//     f(λ) ≈ f0·λ0/λ, but the nonlinear material and the detectors sit at
//     fixed planes. A channel Δλ away from the design wavelength is
//     defocused by ≈ f0·Δλ/λ0, blurring its pattern over
//     w ≈ A·Δλ/λ0 detector pitches (A = aperture in samples).
//
// Effect 2 does not cancel and is what limits the shared-detector channel
// count: the paper's "spread of the convolution results of all wavelengths
// too large to be captured by a single photodetector" (§4.2.3).

// WDMJTC is a 1-D JTC processing several wavelength channels through one
// shared lens pair onto one shared detector array, with chromatic defocus.
type WDMJTC struct {
	// Aperture as in PhysicalJTC.
	Aperture int
	// CenterWavelength λ0 (metres), e.g. 1550 nm.
	CenterWavelength float64
	// ChannelSpacing between adjacent WDM wavelengths (metres),
	// e.g. 0.8 nm (100 GHz ITU grid).
	ChannelSpacing float64

	phys *PhysicalJTC
}

// NewWDMJTC builds the dispersive multi-wavelength JTC.
func NewWDMJTC(aperture int, centerWavelength, spacing float64) *WDMJTC {
	if centerWavelength <= 0 || spacing < 0 {
		panic("jtc: invalid wavelength plan")
	}
	return &WDMJTC{
		Aperture:         aperture,
		CenterWavelength: centerWavelength,
		ChannelSpacing:   spacing,
		phys:             NewPhysicalJTC(aperture),
	}
}

// BlurSigma returns the defocus blur (in detector pitches, as a Gaussian
// sigma) for channel i of nChannels placed symmetrically around λ0.
func (j *WDMJTC) BlurSigma(i, nChannels int) float64 {
	offset := math.Abs(float64(i) - float64(nChannels-1)/2)
	deltaLambda := offset * j.ChannelSpacing
	// Geometric blur width A·Δλ/λ0; a Gaussian with σ of half that width
	// is the standard thin-lens defocus approximation.
	return float64(j.Aperture) * deltaLambda / j.CenterWavelength / 2
}

// WDMCorrelate computes per-channel correlations optically (each channel
// carrying its own signal/kernel pair — in ReFOCUS, different input
// channels of one filter), applies each channel's defocus blur, and sums
// at the shared photodetectors (the decoder-free detection of §4.2.2).
// It returns the detectors' estimate of Σ_i corr(signal_i, kernel_i).
func (j *WDMJTC) WDMCorrelate(signals, kernels [][]float64) []float64 {
	if len(signals) == 0 || len(signals) != len(kernels) {
		panic("jtc: WDMCorrelate needs matching channel sets")
	}
	ls, lk := len(signals[0]), len(kernels[0])
	for i := range signals {
		if len(signals[i]) != ls || len(kernels[i]) != lk {
			panic(fmt.Sprintf("jtc: channel %d has mismatched operand sizes", i))
		}
	}
	nOut := ls - lk + 1
	sum := make([]float64, nOut)
	band := make([]float64, nOut)
	for i := range signals {
		j.phys.Correlate(band, signals[i], kernels[i])
		for p, v := range gaussianBlur(band, j.BlurSigma(i, len(signals))) {
			sum[p] += v
		}
	}
	return sum
}

// WDMError measures the relative RMS error of the detector-summed
// multi-wavelength correlation against the exact digital channel sum, for
// the given channel count — the quantity whose growth made the paper cap
// N_λ below 4.
func (j *WDMJTC) WDMError(signals, kernels [][]float64) float64 {
	got := j.WDMCorrelate(signals, kernels)
	want := make([]float64, len(got))
	c := make([]float64, len(got))
	for i := range signals {
		dsp.CorrValid(c, signals[i], kernels[i])
		for p, v := range c {
			want[p] += v
		}
	}
	var num, den float64
	for p := range want {
		d := got[p] - want[p]
		num += d * d
		den += want[p] * want[p]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// gaussianBlur convolves x with a normalized Gaussian of the given sigma
// (in samples), with edge clamping. Sigma below a twentieth of a pitch is
// treated as no blur.
func gaussianBlur(x []float64, sigma float64) []float64 {
	if sigma < 0.05 {
		return x
	}
	radius := int(math.Ceil(3 * sigma))
	kernel := make([]float64, 2*radius+1)
	var norm float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		norm += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= norm
	}
	out := make([]float64, len(x))
	for p := range x {
		var sum float64
		for i, kv := range kernel {
			q := p + i - radius
			if q < 0 {
				q = 0
			} else if q >= len(x) {
				q = len(x) - 1
			}
			sum += kv * x[q]
		}
		out[p] = sum
	}
	return out
}
