// Package transformer implements the §7.4 outlook: the non-CNN workloads a
// JTC-based accelerator can serve. Fourier-transform token mixers (FNet
// [30], AFNO [21]) replace self-attention with exactly the operation an
// on-chip lens computes for free, and convolution-based transformers (CvT
// [64], [68]) lean on the 1-D convolutions the JTC natively provides.
//
// The package provides digital references, the optical implementations on
// the optics/jtc substrates (validated to match), and an event-count cost
// model so the arch package's methodology extends to these layers.
package transformer

import (
	"fmt"
	"math"

	"refocus/internal/dataflow"
	"refocus/internal/dsp"
	"refocus/internal/jtc"
	"refocus/internal/nn"
	"refocus/internal/optics"
)

// FNetMix applies the FNet token-mixing sublayer to a [seq][hidden] block:
// y = Re( FFT_seq( FFT_hidden(x) ) ). It replaces self-attention with two
// unparameterized Fourier transforms (Lee-Thorp et al. [30]), which
// together are the 2-D DFT of the block.
func FNetMix(x [][]float64) [][]float64 {
	l, d := dims(x)
	y := make([][]complex128, l)
	for t := range y {
		y[t] = make([]complex128, d)
		for j, v := range x[t] {
			y[t][j] = complex(v, 0)
		}
	}
	dsp.FFT2D(y)
	out := make([][]float64, l)
	for t := range out {
		out[t] = make([]float64, d)
		for j, v := range y[t] {
			out[t][j] = real(v)
		}
	}
	return out
}

// FNetMixOptical computes the same mixing with the sequence-dimension
// transform performed by an on-chip lens: each hidden channel's token
// column is loaded onto the waveguides and the lens emits its Fourier
// transform in one pass — the passive, instantaneous operation that makes
// FNet-style models natural JTC targets. The hidden-dimension transform
// stays digital (it is the short one; d ≤ a few hundred).
func FNetMixOptical(x [][]float64, lens optics.Lens) [][]float64 {
	l, d := dims(x)
	if lens.Aperture < l {
		panic(fmt.Sprintf("transformer: %d tokens exceed the lens aperture %d", l, lens.Aperture))
	}
	// The hidden-dimension half runs digitally, one transform per token;
	// only the sequence dimension goes through the lens.
	rows := make([][]complex128, l)
	for t := range rows {
		rows[t] = make([]complex128, d)
		for j, v := range x[t] {
			rows[t][j] = complex(v, 0)
		}
		dsp.FFTInPlace(rows[t])
	}
	out := make([][]float64, l)
	for t := range out {
		out[t] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		field := optics.NewField(l)
		for t := 0; t < l; t++ {
			field[t] = rows[t][j]
		}
		transformed := lens.Transform(field)
		// The lens's unitary 1/√L scaling is undone digitally, like every
		// other fixed optical gain in the system.
		scale := math.Sqrt(float64(l))
		for t := 0; t < l; t++ {
			out[t][j] = real(transformed[t]) * scale
		}
	}
	return out
}

// SequenceConv applies a depthwise 1-D convolution over the sequence
// dimension of a [seq][hidden] block — the token-mixing primitive of
// convolutional transformers — using the supplied correlator (digital or a
// physical JTC). kernel[j] convolves hidden channel j; all kernels share a
// length. Output length is seq-len(kernel)+1 per channel (valid mode).
func SequenceConv(x [][]float64, kernel [][]float64, corr jtc.Correlator) [][]float64 {
	l, d := dims(x)
	if len(kernel) != d {
		panic(fmt.Sprintf("transformer: %d kernels for %d hidden channels", len(kernel), d))
	}
	k := len(kernel[0])
	outL := l - k + 1
	if outL < 1 {
		panic("transformer: kernel longer than the sequence")
	}
	out := make([][]float64, outL)
	for t := range out {
		out[t] = make([]float64, d)
	}
	col := make([]float64, l)
	res := make([]float64, outL)
	for j := 0; j < d; j++ {
		if len(kernel[j]) != k {
			panic("transformer: ragged kernel lengths")
		}
		for t := 0; t < l; t++ {
			col[t] = x[t][j]
		}
		corr(res, col, kernel[j])
		for t := 0; t < outL; t++ {
			out[t][j] = res[t]
		}
	}
	return out
}

// MixingEvents estimates the JTC activity of one FNet mixing sublayer on
// the ReFOCUS execution model, delegating to the dataflow package's
// fourier-mixing layer kind (dataflow.MixingEvents). Panics on
// non-positive dimensions, matching the package's functional API.
func MixingEvents(seqLen, hidden int, cfg dataflow.Config) dataflow.Events {
	if seqLen < 1 || hidden < 1 {
		panic("transformer: non-positive dimensions")
	}
	e, err := dataflow.MixingEvents(nn.MixingLayer{Name: "mixing", SeqLen: seqLen, Hidden: hidden, Repeat: 1}, cfg)
	if err != nil {
		panic("transformer: " + err.Error())
	}
	return e
}

func dims(x [][]float64) (l, d int) {
	l = len(x)
	if l == 0 {
		panic("transformer: empty sequence")
	}
	d = len(x[0])
	for i, row := range x {
		if len(row) != d {
			panic(fmt.Sprintf("transformer: ragged row %d", i))
		}
	}
	return l, d
}
