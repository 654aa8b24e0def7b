package jtc

import "math"

// This file is the default datapath (DESIGN.md §11). The serial path's
// per-(channel, kernel-row group) contribution — whatever tiling strategy
// its passes use — sums to the dense 2-D valid cross-correlation of the
// input plane with the group's kernel rows. The default path computes
// that correlation directly, tap by tap, and adds the pass counts the
// tiled passes would have recorded, precomputed per group from the same
// PlanTiling geometry the serial path walks. The per-pass path stays as
// the golden reference (EngineConfig.DisableSpectrumReuse) and for custom
// correlators, which must see every pass.

// rowGroup is one kernel-row group: kernels taller than the weight
// waveguides hold (the 7×7 and 11×11 first layers) split into groups of
// at most floor(Wwg/KW) rows, each run as its own set of passes over the
// correspondingly shifted input rows, with the partial sums accumulating
// at the detector.
type rowGroup struct {
	j0, g int
	// stats is what the serial path tallies for one (channel, group)
	// ConvPlane call; the default path adds it instead of running the
	// passes.
	stats PassStats
}

// planRowGroups splits a kh×kw kernel into row groups for an h×w input
// plane on t input waveguides and weightWaveguides weight waveguides.
func planRowGroups(h, w, kh, kw, t, weightWaveguides int) []rowGroup {
	oh := h - kh + 1
	rows := min(weightWaveguides/kw, kh)
	var groups []rowGroup
	for j0 := 0; j0 < kh; j0 += rows {
		g := min(rows, kh-j0)
		// The group's passes run over an input view of oh-1+g rows.
		geo := PlanTiling(oh-1+g, w, g, kw, t)
		groups = append(groups, rowGroup{j0: j0, g: g, stats: groupTally(geo)})
	}
	return groups
}

// groupTally computes the pass statistics the serial path records for
// one ConvPlane call with geometry geo, by walking the same pass
// enumeration without executing it.
func groupTally(geo Geometry) PassStats {
	vh, w, kw, ow := geo.H, geo.W, geo.KW, geo.OutW
	var st PassStats
	switch geo.Strategy {
	case FullTiling:
		for r0 := 0; r0 < geo.OutH; r0 += geo.ValidRowsPerPass {
			if r0+geo.RowsPerTile > vh {
				r0 = vh - geo.RowsPerTile
			}
			valid := geo.ValidRowsPerPass
			if r0+valid > geo.OutH {
				valid = geo.OutH - r0
			}
			st.Passes++
			st.InputConversions += geo.ActiveInputsPerPass
			st.WeightConversions += geo.ActiveWeightsPerPass
			st.OutputReads += valid * ow
			if r0+geo.ValidRowsPerPass >= geo.OutH {
				break
			}
		}
	case PartialTiling:
		g := geo.KH
		for jj := 0; jj < g; jj += geo.RowsPerTile {
			rows := min(geo.RowsPerTile, g-jj)
			st.Passes += geo.OutH
			st.InputConversions += geo.OutH * rows * w
			st.WeightConversions += geo.OutH * rows * kw
		}
		st.OutputReads += geo.OutH * ow
	case RowPartitioning:
		perSegment := geo.T - kw + 1
		for j := 0; j < geo.KH; j++ {
			for x0 := 0; x0 < ow; x0 += perSegment {
				n := min(perSegment, ow-x0)
				st.Passes += geo.OutH
				st.InputConversions += geo.OutH * (n + kw - 1)
				st.WeightConversions += geo.OutH * kw
			}
		}
		st.OutputReads += geo.OutH * ow
	}
	return st
}

// correlateInto adds the dense valid 2-D cross-correlation of view with
// kernel into the detector wells (row-major, len(row) columns) and raises
// maxSingle to the largest magnitude it produced — the single-channel
// maximum the ADC full scale is sized from. Each output row is summed in
// the row scratch one non-zero tap at a time, in the row-major tap order
// of the serial path's tiled 1-D correlation. Quantized operands are
// integer levels, so while the sums stay below 2^53 (8-bit operands reach
// about 2^26 over a 16-channel window of 7×7 kernels) every partial sum is
// exact on both paths, in any order, and the result is bit-identical to
// the per-pass reference without any rounding.
func correlateInto(well, row []float64, view, kernel [][]float64, maxSingle *float64) {
	ow := len(row)
	m := *maxSingle
	for y := 0; y+len(kernel) <= len(view); y++ {
		first := true
		for dy, krow := range kernel {
			in := view[y+dy]
			for dx, k := range krow {
				if k == 0 {
					continue
				}
				src := in[dx : dx+ow]
				// The first tap stores instead of adding: 0 + k·v is k·v
				// exactly, and the scratch needs no clearing.
				if first {
					for x, v := range src {
						row[x] = k * v
					}
					first = false
					continue
				}
				for x, v := range src {
					row[x] += k * v
				}
			}
		}
		wrow := well[y*ow : (y+1)*ow]
		for x, v := range row {
			wrow[x] += v
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	*maxSingle = m
}
