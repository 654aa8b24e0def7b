package jtc

import (
	"fmt"

	"refocus/internal/dsp"
)

// FreeSpaceJTC is a 2-D free-space joint transform correlator — the
// classic tabletop system ([63], paper §1/§2.1) that on-chip JTCs
// descend from. A 2-D Fourier lens transforms the joint input plane, a
// square-law medium records the joint power spectrum, and a second lens
// produces the correlation plane. Unlike the 1-D on-chip version, it
// computes full 2-D convolutions natively, with no row tiling — at the
// cost of bulk and inflexibility, which is the paper's motivation for the
// integrated version.
type FreeSpaceJTC struct {
	// ApertureY, ApertureX are the input plane dimensions in samples.
	ApertureY, ApertureX int
}

// NewFreeSpaceJTC builds an ideal 2-D JTC.
func NewFreeSpaceJTC(apertureY, apertureX int) *FreeSpaceJTC {
	if apertureY < 4 || apertureX < 16 {
		panic(fmt.Sprintf("jtc: free-space aperture %dx%d too small", apertureY, apertureX))
	}
	return &FreeSpaceJTC{ApertureY: apertureY, ApertureX: apertureX}
}

// MaxOperandWidth is the widest combined operand (signal width + kernel
// width) the horizontal separation scheme supports; the vertical extent
// must satisfy hs+hk <= ApertureY.
func (j *FreeSpaceJTC) MaxOperandWidth() int { return j.ApertureX / 8 }

// Correlate2D computes the valid 2-D cross-correlation
// out[y][x] = Σ signal[y+dy][x+dx]·kernel[dy][dx] by simulated 2-D light
// propagation: both operands are placed side by side on the input plane
// (kernel offset horizontally by ApertureX/4), propagated through
// lens → |·|² → lens, and the correlation band is read from the output
// plane.
func (j *FreeSpaceJTC) Correlate2D(signal, kernel [][]float64) [][]float64 {
	hs, ws := dims2(signal)
	hk, wk := dims2(kernel)
	if hk > hs || wk > ws {
		panic("jtc: kernel exceeds signal")
	}
	if ws+wk > j.MaxOperandWidth() {
		panic(fmt.Sprintf("jtc: operand width %d exceeds capacity %d", ws+wk, j.MaxOperandWidth()))
	}
	if hs+hk > j.ApertureY {
		panic(fmt.Sprintf("jtc: operand height %d exceeds aperture %d", hs+hk, j.ApertureY))
	}
	ny, nx := j.ApertureY, j.ApertureX
	sep := nx / 4

	// Input plane: signal at (0,0), kernel at (0, sep), as real
	// non-negative field amplitudes.
	plane := make([][]complex128, ny)
	for y := range plane {
		plane[y] = make([]complex128, nx)
	}
	for y := 0; y < hs; y++ {
		for x := 0; x < ws; x++ {
			if signal[y][x] < 0 {
				panic("jtc: negative signal amplitude")
			}
			plane[y][x] = complex(signal[y][x], 0)
		}
	}
	for y := 0; y < hk; y++ {
		for x := 0; x < wk; x++ {
			if kernel[y][x] < 0 {
				panic("jtc: negative kernel amplitude")
			}
			plane[y][sep+x] = complex(kernel[y][x], 0)
		}
	}

	// Lens 1 → joint power spectrum → lens 2. Normalizing the JPS by
	// 1/N (N = ny·nx samples) makes the raw DFT∘|·|²∘DFT composition —
	// whose cross term carries N·corr — emerge at exactly unit gain.
	dsp.FFT2D(plane)
	invN := 1 / float64(ny*nx)
	for y := range plane {
		for x, e := range plane[y] {
			plane[y][x] = complex((real(e)*real(e)+imag(e)*imag(e))*invN, 0)
		}
	}
	dsp.FFT2D(plane)

	// Extraction: with s at (0,0) and k at (0,sep), the cross term reads
	// the correlation at lag (ly,lx) from output position
	// (-ly mod NY, sep-lx).
	oy, ox := hs-hk+1, ws-wk+1
	out := make([][]float64, oy)
	for ly := 0; ly < oy; ly++ {
		out[ly] = make([]float64, ox)
		my := (ny - ly) % ny
		for lx := 0; lx < ox; lx++ {
			mx := (sep - lx + nx) % nx
			out[ly][lx] = real(plane[my][mx])
		}
	}
	return out
}

func dims2(p [][]float64) (h, w int) {
	h = len(p)
	if h == 0 {
		panic("jtc: empty operand")
	}
	w = len(p[0])
	for i, row := range p {
		if len(row) != w {
			panic(fmt.Sprintf("jtc: ragged operand row %d", i))
		}
	}
	return h, w
}
