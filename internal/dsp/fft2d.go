package dsp

import (
	"fmt"
	"sync"
)

// transposeBlock is the tile edge for the blocked transposes in FFT2D:
// 32 complex128s per row of a tile is 512 B, so one square tile (both
// source and destination working sets) sits comfortably in L1 while the
// column-major side of the copy walks memory in long strides.
const transposeBlock = 32

// planeScratch pools the flat buffers FFT2D transposes into, so
// repeated same-shape 2-D transforms (the steady state of every sweep)
// stop allocating. Buffers are grown on demand and shared across shapes.
var planeScratch = sync.Pool{New: func() any {
	s := make([]complex128, 0)
	return &s
}}

// FFT2D computes the 2-D DFT of a row-major [h][w] complex matrix in place
// (rows first, then columns) — the transform a free-space 2-D Fourier lens
// performs on its back focal plane. The column pass works on contiguous
// columns obtained via a blocked transpose into pooled scratch —
// transforming w gathered columns of length h in place, then transposing
// back — instead of gathering and scattering one column element at a time
// through strided memory.
func FFT2D(x [][]complex128) {
	h := len(x)
	if h == 0 {
		return
	}
	w := len(x[0])
	for i, row := range x {
		if len(row) != w {
			panic(fmt.Sprintf("dsp: ragged 2-D input at row %d", i))
		}
		FFTInPlace(row)
	}

	buf := planeScratch.Get().(*[]complex128)
	if cap(*buf) < h*w {
		*buf = make([]complex128, h*w)
	}
	t := (*buf)[:h*w] // t is the w×h transpose of x, row-major

	for i0 := 0; i0 < h; i0 += transposeBlock {
		iEnd := min2d(i0+transposeBlock, h)
		for j0 := 0; j0 < w; j0 += transposeBlock {
			jEnd := min2d(j0+transposeBlock, w)
			for i := i0; i < iEnd; i++ {
				row := x[i]
				for j := j0; j < jEnd; j++ {
					t[j*h+i] = row[j]
				}
			}
		}
	}
	for j := 0; j < w; j++ {
		FFTInPlace(t[j*h : (j+1)*h])
	}
	for i0 := 0; i0 < h; i0 += transposeBlock {
		iEnd := min2d(i0+transposeBlock, h)
		for j0 := 0; j0 < w; j0 += transposeBlock {
			jEnd := min2d(j0+transposeBlock, w)
			for i := i0; i < iEnd; i++ {
				row := x[i]
				for j := j0; j < jEnd; j++ {
					row[j] = t[j*h+i]
				}
			}
		}
	}
	planeScratch.Put(buf)
}

func min2d(a, b int) int {
	if a < b {
		return a
	}
	return b
}
