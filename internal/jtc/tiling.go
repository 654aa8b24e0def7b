package jtc

import (
	"fmt"
	"math"

	"refocus/internal/dsp"
)

// TilingStrategy identifies how a 2-D convolution maps onto the 1-D JTC
// (paper §2.2).
type TilingStrategy int

const (
	// FullTiling: at least KH rows fit on the input waveguides; each pass
	// produces RowsPerTile-KH+1 valid output rows (Figure 2).
	FullTiling TilingStrategy = iota
	// PartialTiling: fewer than KH (but at least one) rows fit; kernel
	// rows are processed in groups and partial sums accumulate digitally,
	// taking multiple cycles per output row.
	PartialTiling
	// RowPartitioning: a single padded row exceeds the waveguide count;
	// rows are split into overlapping segments (first-layer case).
	RowPartitioning
)

func (s TilingStrategy) String() string {
	switch s {
	case FullTiling:
		return "full-tiling"
	case PartialTiling:
		return "partial-tiling"
	case RowPartitioning:
		return "row-partitioning"
	default:
		return fmt.Sprintf("TilingStrategy(%d)", int(s))
	}
}

// Geometry describes how one conv layer's spatial plane maps onto a 1-D JTC
// with T input waveguides.
type Geometry struct {
	Strategy TilingStrategy

	H, W   int // input spatial size (after any padding)
	KH, KW int // kernel size
	T      int // input waveguides

	// RowStride is the 1-D length of one tiled input row: W + KW - 1 with
	// exact zero padding (the gray blocks of Figure 2). The padding costs
	// nothing optically — the pad waveguides' DACs/MRRs switch off.
	RowStride int
	// RowsPerTile R_i is how many input rows fit in one pass.
	RowsPerTile int
	// ValidRowsPerPass is how many correct output rows one pass yields
	// (R_i - KH + 1 under full tiling; the paper's Figure-2 example:
	// 8 rows tiled, 3×3 kernel → 6 valid).
	ValidRowsPerPass int
	// KernelRowsPerPass is how many kernel rows load per pass (KH under
	// full tiling, fewer under partial tiling).
	KernelRowsPerPass int
	// SegmentsPerRow is how many overlapping segments each row splits
	// into under row partitioning (1 otherwise).
	SegmentsPerRow int
	// PassesPerImage is the number of JTC passes to produce the full
	// dense output plane (one input channel, one filter channel).
	PassesPerImage int
	// OutH, OutW are the dense valid-convolution output dimensions.
	OutH, OutW int
	// ActiveInputsPerPass is the number of input waveguides carrying
	// non-pad data in a full pass — the count of input D/A conversions
	// charged per pass (§2.2: zero-pad DACs are switched off).
	ActiveInputsPerPass int
	// ActiveWeightsPerPass is the number of weight values converted per
	// pass (KernelRowsPerPass·KW; the kernel's zero padding is free).
	ActiveWeightsPerPass int
	// Utilization is ValidRowsPerPass·OutW / (active conversions·...) —
	// here: fraction of tiled input rows that produce valid output rows,
	// the efficiency the paper notes is higher for larger JTCs and
	// smaller activations.
	Utilization float64
}

// PlanTiling computes the geometry for convolving an H×W plane with a
// KH×KW kernel on a JTC with t input waveguides. Inputs must satisfy
// KH ≤ H, KW ≤ W (pad first for "same" convolutions) and t ≥ KW+KW-1
// so at least one kernel-width segment fits.
func PlanTiling(h, w, kh, kw, t int) Geometry {
	if h < kh || w < kw {
		panic(fmt.Sprintf("jtc: kernel %dx%d exceeds input %dx%d", kh, kw, h, w))
	}
	if kh < 1 || kw < 1 {
		panic("jtc: kernel dimensions must be positive")
	}
	if t < 2*kw-1 {
		panic(fmt.Sprintf("jtc: %d waveguides cannot host even one kernel-width window of width %d", t, kw))
	}
	g := Geometry{H: h, W: w, KH: kh, KW: kw, T: t}
	g.OutH, g.OutW = h-kh+1, w-kw+1
	g.RowStride = w + kw - 1
	g.SegmentsPerRow = 1

	rows := t / g.RowStride
	switch {
	case rows >= kh:
		g.Strategy = FullTiling
		g.RowsPerTile = rows
		// Never tile more rows than the input has.
		if g.RowsPerTile > h {
			g.RowsPerTile = h
		}
		g.ValidRowsPerPass = g.RowsPerTile - kh + 1
		g.KernelRowsPerPass = kh
		g.PassesPerImage = ceilDiv(g.OutH, g.ValidRowsPerPass)
		g.ActiveInputsPerPass = g.RowsPerTile * w
		g.ActiveWeightsPerPass = kh * kw
		g.Utilization = float64(g.ValidRowsPerPass) / float64(g.RowsPerTile)
	case rows >= 1:
		g.Strategy = PartialTiling
		g.RowsPerTile = rows
		g.KernelRowsPerPass = rows
		g.ValidRowsPerPass = 1
		// Each output row needs ceil(KH/rows) passes of partial sums.
		g.PassesPerImage = g.OutH * ceilDiv(kh, rows)
		g.ActiveInputsPerPass = rows * w
		g.ActiveWeightsPerPass = rows * kw
		g.Utilization = 1 / float64(g.RowsPerTile*ceilDiv(kh, rows))
	default:
		g.Strategy = RowPartitioning
		g.RowsPerTile = 1
		g.KernelRowsPerPass = 1
		g.ValidRowsPerPass = 1
		// Each segment hosts t waveguides and yields t-KW+1 of the OutW
		// window positions; one pass per (segment, kernel row).
		perSegment := t - kw + 1
		g.SegmentsPerRow = ceilDiv(g.OutW, perSegment)
		g.PassesPerImage = g.OutH * kh * g.SegmentsPerRow
		g.ActiveInputsPerPass = min(t, w)
		g.ActiveWeightsPerPass = kw
		g.Utilization = float64(g.OutW) / float64(g.SegmentsPerRow*t*kh)
	}
	if g.Utilization > 1 {
		g.Utilization = 1
	}
	return g
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Correlator computes a 1-D valid cross-correlation into dst:
// dst[i] = Σ_j signal[i+j]·kernel[j] for the len(signal)-len(kernel)+1
// valid lags, which must be exactly len(dst). The caller owns all three
// slices: a correlator writes every sample of dst, only reads signal and
// kernel, and keeps none of them after it returns. The digital reference
// is dsp.CorrValid; PhysicalJTC.Correlate is the optical implementation.
type Correlator func(dst, signal, kernel []float64)

// PassStats tallies the work one tiled convolution performed, in the units
// the paper uses for its §2.2 comparison: conversions (DAC samples written)
// rather than MACs, since the optics compute for free.
type PassStats struct {
	Passes            int
	InputConversions  int
	WeightConversions int
	OutputReads       int // valid output samples detected
}

// Add accumulates other into s.
func (s *PassStats) Add(other PassStats) {
	s.Passes += other.Passes
	s.InputConversions += other.InputConversions
	s.WeightConversions += other.WeightConversions
	s.OutputReads += other.OutputReads
}

// ConvPlane convolves one H×W input plane with one KH×KW kernel on the 1-D
// JTC abstraction, returning the dense valid 2-D cross-correlation
// (out[y][x] = Σ input[y+dy][x+dx]·kernel[dy][dx]) and the pass statistics.
// corr supplies the 1-D correlator (digital or physical).
//
// The three §2.2 strategies are all implemented; which one runs is decided
// by PlanTiling from the plane size and waveguide count. ConvPlane runs
// the engine's pass loop on fresh scratch, so the caller owns the plane.
func ConvPlane(input [][]float64, kernel [][]float64, t int, corr Correlator) ([][]float64, PassStats) {
	var s scratch
	stats := s.convPlane(input, kernel, t, corr)
	return s.plane, stats
}

// convPlane is the pass loop of ConvPlane. It writes the output plane to
// s.plane and runs every pass on s's tiled signal, tiled kernel and
// correlator output, which it reuses from call to call.
func (s *scratch) convPlane(input [][]float64, kernel [][]float64, t int, corr Correlator) PassStats {
	h, w := len(input), len(input[0])
	kh, kw := len(kernel), len(kernel[0])
	g := PlanTiling(h, w, kh, kw, t)
	out := s.outPlane(g.OutH, g.OutW)
	var stats PassStats

	switch g.Strategy {
	case FullTiling:
		// Every output row is copied from a pass, so the plane needs no
		// clearing.
		kern1D := s.tileKernel(kernel, g.RowStride)
		for r0 := 0; r0 < g.OutH; r0 += g.ValidRowsPerPass {
			// The final pass may slide backward so its tile stays in
			// range; the overlapping rows are recomputed (harmless).
			if r0+g.RowsPerTile > h {
				r0 = h - g.RowsPerTile
			}
			sig := s.tileRows(input, r0, g.RowsPerTile, g.RowStride)
			res := s.result(len(sig) - len(kern1D) + 1)
			corr(res, sig, kern1D)
			valid := g.ValidRowsPerPass
			if r0+valid > g.OutH {
				valid = g.OutH - r0
			}
			for r := 0; r < valid; r++ {
				copy(out[r0+r], res[r*g.RowStride:r*g.RowStride+g.OutW])
			}
			stats.Passes++
			stats.InputConversions += g.ActiveInputsPerPass
			stats.WeightConversions += g.ActiveWeightsPerPass
			stats.OutputReads += valid * g.OutW
			if r0+g.ValidRowsPerPass >= g.OutH {
				break
			}
		}
	case PartialTiling:
		// Partial sums accumulate from zero, in pass order.
		clear(s.planeBuf)
		for oy := 0; oy < g.OutH; oy++ {
			for j0 := 0; j0 < kh; j0 += g.RowsPerTile {
				rows := min(g.RowsPerTile, kh-j0)
				sig := s.tileRows(input, oy+j0, rows, g.RowStride)
				kern1D := s.tileKernel(kernel[j0:j0+rows], g.RowStride)
				res := s.result(len(sig) - len(kern1D) + 1)
				corr(res, sig, kern1D)
				for x := 0; x < g.OutW; x++ {
					out[oy][x] += res[x]
				}
				stats.Passes++
				stats.InputConversions += rows * w
				stats.WeightConversions += rows * kw
			}
			stats.OutputReads += g.OutW
		}
	case RowPartitioning:
		clear(s.planeBuf)
		perSegment := t - kw + 1
		for oy := 0; oy < g.OutH; oy++ {
			for j := 0; j < kh; j++ {
				row := input[oy+j]
				for x0 := 0; x0 < g.OutW; x0 += perSegment {
					n := min(perSegment, g.OutW-x0)
					seg := row[x0 : x0+n+kw-1]
					res := s.result(n)
					corr(res, seg, kernel[j])
					for x := 0; x < n; x++ {
						out[oy][x0+x] += res[x]
					}
					stats.Passes++
					stats.InputConversions += len(seg)
					stats.WeightConversions += kw
				}
			}
			stats.OutputReads += g.OutW
		}
	}
	return stats
}

// outPlane points s.plane's oh rows at an oh×ow block of s.planeBuf and
// returns it. The block keeps whatever an earlier call left in it.
func (s *scratch) outPlane(oh, ow int) [][]float64 {
	s.planeBuf = grow(s.planeBuf, oh*ow)
	if cap(s.plane) < oh {
		s.plane = make([][]float64, oh)
	}
	s.plane = s.plane[:oh]
	for y := range s.plane {
		s.plane[y] = s.planeBuf[y*ow : (y+1)*ow]
	}
	return s.plane
}

// tileRows flattens rows [r0, r0+n) into s.sig with the given row stride,
// zero-padding between rows (Figure 2's gray blocks). The pads are
// re-zeroed on every call, since an earlier pass of another geometry may
// have left samples there. The final row's trailing pad is kept so the
// correlator sees a uniform layout.
func (s *scratch) tileRows(input [][]float64, r0, n, stride int) []float64 {
	w := len(input[0])
	s.sig = grow(s.sig, n*stride)
	for r := 0; r < n; r++ {
		copy(s.sig[r*stride:r*stride+w], input[r0+r])
		clear(s.sig[r*stride+w : (r+1)*stride])
	}
	return s.sig
}

// tileKernel flattens kernel rows into s.kern with the row stride,
// re-zeroing the padding between rows and trimming the final row's
// padding (it contributes nothing and shortens the correlation).
func (s *scratch) tileKernel(kernel [][]float64, stride int) []float64 {
	kh, kw := len(kernel), len(kernel[0])
	s.kern = grow(s.kern, (kh-1)*stride+kw)
	for r := 0; r < kh; r++ {
		copy(s.kern[r*stride:r*stride+kw], kernel[r])
		if r < kh-1 {
			clear(s.kern[r*stride+kw : (r+1)*stride])
		}
	}
	return s.kern
}

// result returns s.res resized to a pass's n correlator outputs.
func (s *scratch) result(n int) []float64 {
	s.res = grow(s.res, n)
	return s.res
}

// grow returns buf resized to n, allocating only when its capacity is
// short. The samples it keeps are stale; callers overwrite or clear them.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// DigitalCorrelator is the exact 1-D correlator used when the physical
// optical path is not being exercised. It allocates nothing.
func DigitalCorrelator(dst, signal, kernel []float64) {
	dsp.CorrValid(dst, signal, kernel)
}

// ConversionsExample reproduces the paper's §2.2 accounting example: a JTC
// with t input waveguides convolving a size×size input with a k×k kernel
// needs passes·(t + k²) conversions, against size²·k² GPU MACs. It returns
// (jtcConversions, gpuMACs).
func ConversionsExample(size, k, t int) (jtcConversions, gpuMACs int) {
	g := PlanTiling(size, size, k, k, t)
	jtcConversions = g.PassesPerImage * (t + k*k)
	gpuMACs = size * size * k * k
	return jtcConversions, gpuMACs
}

// UtilizationForLayer is a convenience wrapper returning the fraction of
// tiled rows that yield valid outputs for an h×w plane on t waveguides.
func UtilizationForLayer(h, w, kh, kw, t int) float64 {
	g := PlanTiling(h, w, kh, kw, t)
	u := g.Utilization
	if math.IsNaN(u) {
		return 0
	}
	return u
}
