package jtc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"refocus/internal/obs"
	"refocus/internal/tensor"
)

// QuantConfig controls the fixed-point behaviour of the analog datapath.
// Zero value = disabled (exact arithmetic).
type QuantConfig struct {
	Enabled bool
	// InputBits/WeightBits quantize the DAC-generated operands (8 in
	// ReFOCUS).
	InputBits, WeightBits int
	// ADCBits quantizes the accumulated detector readout (8 in ReFOCUS).
	ADCBits int
}

// DefaultQuant returns the paper's 8-bit configuration.
func DefaultQuant() QuantConfig {
	return QuantConfig{Enabled: true, InputBits: 8, WeightBits: 8, ADCBits: 8}
}

// EngineConfig configures the functional JTC compute engine.
type EngineConfig struct {
	// InputWaveguides is the JTC tile size T (256 in ReFOCUS).
	InputWaveguides int
	// WeightWaveguides bounds the kernel footprint: KH·KW must fit the
	// active weight waveguides (25 in ReFOCUS, enough for 5×5).
	WeightWaveguides int
	// AccumulationWindow is how many channel results accumulate at the
	// photodetector before one ADC readout (temporal accumulation M;
	// 16 in ReFOCUS). 1 disables accumulation.
	AccumulationWindow int
	// Quant is the fixed-point model.
	Quant QuantConfig
	// Correlator overrides the 1-D correlator; nil uses the exact digital
	// one. Supplying PhysicalJTC.Correlate runs real field propagation.
	Correlator Correlator
	// Parallelism is how many worker goroutines Conv2D fans filters out
	// across. 0 means runtime.GOMAXPROCS(0); 1 forces the serial path.
	// The output is bit-identical for every setting: filters are
	// independent and each filter's accumulation order is unchanged. The
	// Correlator must be safe for concurrent use when Parallelism != 1
	// (DigitalCorrelator and PhysicalJTC.Correlate both are).
	Parallelism int
	// DisableSpectrumReuse forces the per-pass serial reference even when
	// Correlator is nil: every (filter, part, channel, kernel-row group)
	// then runs as tiled 1-D correlator passes (ConvPlane), the golden
	// reference the default path is conformance-tested against. By
	// default the engine computes each such contribution as one exact
	// dense correlation and adds the pass counts the tiling would have
	// issued (DESIGN.md §11). Setting Correlator also forces the per-pass
	// path — a custom correlator (e.g. PhysicalJTC.Correlate) must see
	// every pass. The name predates the direct datapath.
	DisableSpectrumReuse bool
}

// DefaultEngineConfig matches the ReFOCUS RFCU (paper §4, §5.1).
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		InputWaveguides:    256,
		WeightWaveguides:   25,
		AccumulationWindow: 16,
		Quant:              DefaultQuant(),
	}
}

// Engine executes CNN convolution layers the way ReFOCUS hardware would:
// pseudo-negative filter splitting, 8-bit operand quantization, row-tiled
// 1-D JTC passes per (filter, channel) pair, temporal accumulation of
// channel groups at the detector, ADC quantization of the accumulated
// readout, and digital accumulation across groups.
//
// An Engine is safe for concurrent use: Conv2D computes into local state
// and only touches the shared statistics under a mutex, after its own
// worker barrier.
type Engine struct {
	cfg EngineConfig

	// direct selects the exact dense-correlation datapath (direct.go);
	// set when no custom correlator is configured and the serial
	// reference is not forced.
	direct bool

	mu    sync.Mutex
	stats PassStats
}

// NewEngine validates the configuration and returns an engine.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.InputWaveguides < 4 {
		panic(fmt.Sprintf("jtc: %d input waveguides is too few", cfg.InputWaveguides))
	}
	if cfg.WeightWaveguides < 1 {
		panic("jtc: need at least one weight waveguide")
	}
	if cfg.AccumulationWindow < 1 {
		cfg.AccumulationWindow = 1
	}
	direct := cfg.Correlator == nil && !cfg.DisableSpectrumReuse
	if cfg.Correlator == nil {
		cfg.Correlator = DigitalCorrelator
	}
	return &Engine{cfg: cfg, direct: direct}
}

// Stats returns the accumulated pass statistics since the last ResetStats.
func (e *Engine) Stats() PassStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ResetStats clears the counters.
func (e *Engine) ResetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = PassStats{}
}

// parallelism resolves the configured worker count against the host and
// the number of independent work items.
func (e *Engine) parallelism(items int) int {
	w := e.cfg.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Conv2D runs a conv layer: input [C,H,W], weights [F,C,KH,KW], returning
// [F,OutH,OutW] (valid convolution; apply tensor.Pad2D beforehand for
// "same" layers, mirroring how the scheduler pads in SRAM). Stride is
// applied by dense computation and subsampling, as the optical system
// always produces dense output rows.
//
// Inputs must be non-negative (post-ReLU activations; the optical system
// transports amplitudes). Weights may be signed: the engine splits each
// filter into positive and negative parts and subtracts digitally — the
// paper's pseudo-negative processing, which doubles the pass count.
func (e *Engine) Conv2D(input, weights *tensor.Tensor, stride int) *tensor.Tensor {
	return e.Conv2DCtx(context.Background(), input, weights, stride)
}

// Conv2DCtx is Conv2D with observability: when ctx carries an obs.Trace
// the layer records one span for the whole convolution plus per-filter
// and per-accumulation-window child spans (each window span counts its
// optical passes), so a traced run shows exactly where the JTC time
// goes. The numeric output is identical to Conv2D for every context.
func (e *Engine) Conv2DCtx(ctx context.Context, input, weights *tensor.Tensor, stride int) *tensor.Tensor {
	if input.Rank() != 3 || weights.Rank() != 4 {
		panic(fmt.Sprintf("jtc: Conv2D wants [C,H,W] and [F,C,KH,KW], got %v and %v", input.Shape, weights.Shape))
	}
	if stride < 1 {
		panic("jtc: stride must be >= 1")
	}
	c, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	f, wc, kh, kw := weights.Shape[0], weights.Shape[1], weights.Shape[2], weights.Shape[3]
	if c != wc {
		panic(fmt.Sprintf("jtc: channel mismatch %d vs %d", c, wc))
	}
	if kw > e.cfg.WeightWaveguides {
		panic(fmt.Sprintf("jtc: kernel width %d exceeds the %d weight waveguides; column splitting is not supported", kw, e.cfg.WeightWaveguides))
	}

	// Operand quantization (the DACs): per-tensor symmetric scales. The
	// non-negativity check rides along with the max-finding scan so the
	// input tensor is traversed once.
	qInput, inputScale := e.quantizeInput(input.Data, e.cfg.Quant.InputBits)
	posW, negW, weightScale := e.splitQuantizeWeights(weights)

	oh, ow := h-kh+1, w-kw+1
	out := tensor.New(f, oh, ow)

	inPlanes := make([][][]float64, c)
	for ci := 0; ci < c; ci++ {
		inPlanes[ci] = asPlane(qInput[ci*h*w:(ci+1)*h*w], h, w)
	}

	// Filters are independent: fan them out across workers, each with a
	// private stats tally merged after the barrier. Within one filter the
	// accumulation order is exactly the serial order, so the output is
	// bit-identical for any Parallelism setting.
	opScale := inputScale * weightScale
	workers := e.parallelism(f)
	layerSpan := obs.StartSpan(ctx, "jtc.conv2d")
	if layerSpan != nil {
		layerSpan.SetAttr("filters", f)
		layerSpan.SetAttr("channels", c)
		layerSpan.SetAttr("input", fmt.Sprintf("%dx%d", h, w))
		layerSpan.SetAttr("kernel", fmt.Sprintf("%dx%d", kh, kw))
		layerSpan.SetAttr("workers", workers)
	}

	// The kernel-row split and each group's pass tally depend on the
	// layer shape alone; both datapaths walk the same groups.
	groups := planRowGroups(h, w, kh, kw, e.cfg.InputWaveguides, e.cfg.WeightWaveguides)

	if workers == 1 {
		var st PassStats
		rows := make([][]float64, 2*c*kh)
		for fi := 0; fi < f; fi++ {
			e.convFilter(ctx, out, inPlanes, groups, posW, negW, rows, fi, kh, kw, opScale, &st)
		}
		e.mu.Lock()
		e.stats.Add(st)
		e.mu.Unlock()
	} else {
		perWorker := make([]PassStats, workers)
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				wctx := obs.Lane(ctx)
				rows := make([][]float64, 2*c*kh)
				for fi := wi; fi < f; fi += workers {
					e.convFilter(wctx, out, inPlanes, groups, posW, negW, rows, fi, kh, kw, opScale, &perWorker[wi])
				}
			}(wi)
		}
		wg.Wait()
		e.mu.Lock()
		for i := range perWorker {
			e.stats.Add(perWorker[i])
		}
		e.mu.Unlock()
	}
	layerSpan.End()

	if stride == 1 {
		return out
	}
	sh, sw := (oh+stride-1)/stride, (ow+stride-1)/stride
	sub := tensor.New(f, sh, sw)
	for fi := 0; fi < f; fi++ {
		for y := 0; y < sh; y++ {
			for x := 0; x < sw; x++ {
				sub.Data[(fi*sh+y)*sw+x] = out.Data[(fi*oh+y*stride)*ow+x*stride]
			}
		}
	}
	return sub
}

// convFilter computes one output filter: optical accumulation over channel
// groups, the pseudo-negative subtraction, and the operand-scale undo,
// writing into out's (disjoint) filter-fi region. rows is the calling
// worker's row-header scratch (2·C·KH entries), repointed at each filter's
// kernels so no header is allocated per kernel. st receives the pass
// statistics; callers running convFilter concurrently hand each worker its
// own rows and tally and merge the tallies after the barrier.
func (e *Engine) convFilter(ctx context.Context, out *tensor.Tensor, inPlanes [][][]float64, groups []rowGroup, posW, negW []float64, rows [][]float64, fi, kh, kw int, opScale float64, st *PassStats) {
	c := len(inPlanes)
	h, w := len(inPlanes[0]), len(inPlanes[0][0])
	oh, ow := h-kh+1, w-kw+1
	// Point the worker's row headers at the filter's kernels: split part
	// kernel ci is posRows (negRows) [ci·kh, (ci+1)·kh).
	n := c * kh
	posRows, negRows := rows[:n], rows[n:]
	for i := range posRows {
		posRows[i] = posW[(fi*n+i)*kw : (fi*n+i+1)*kw]
		negRows[i] = negW[(fi*n+i)*kw : (fi*n+i+1)*kw]
	}
	// The filter's digital accumulator, the photodetector charge wells
	// every accumulation window reuses, and one output row of scratch for
	// the direct datapath.
	buf := make([]float64, (2*oh+1)*ow)
	acc, well, row := buf[:oh*ow], buf[oh*ow:2*oh*ow], buf[2*oh*ow:]
	filterSpan := obs.StartSpan(ctx, "jtc.filter")
	passesBefore := st.Passes
	// Channel groups of M accumulate optically; groups accumulate
	// digitally after ADC readout.
	M := e.cfg.AccumulationWindow
	for c0 := 0; c0 < c; c0 += M {
		cn := c0 + M
		if cn > c {
			cn = c
		}
		e.accumulateGroup(ctx, acc, well, row, inPlanes, groups, posRows, c0, cn, kh, kw, +1, st)
		e.accumulateGroup(ctx, acc, well, row, inPlanes, groups, negRows, c0, cn, kh, kw, -1, st)
	}
	// Undo the operand scales in the digital domain.
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			out.Data[(fi*oh+y)*ow+x] = acc[y*ow+x] * opScale
		}
	}
	if filterSpan != nil {
		filterSpan.SetAttr("filter", fi)
		filterSpan.SetAttr("passes", st.Passes-passesBefore)
		filterSpan.End()
	}
}

// accumulateGroup runs one temporal-accumulation window: channels
// [c0,cn) of one filter, whose kernel ci is rows[ci·kh:(ci+1)·kh],
// through the JTC, detector-accumulated in well, one ADC readout, then
// added into acc with the given sign (the pseudo-negative subtraction
// happens here). row is the direct
// datapath's output-row scratch. Pass counts tally into st, never into
// the engine's shared stats, so concurrent workers do not contend.
func (e *Engine) accumulateGroup(ctx context.Context, acc, well, row []float64, inPlanes [][][]float64, groups []rowGroup, rows [][]float64, c0, cn, kh, kw int, sign float64, st *PassStats) {
	h := len(inPlanes[0])
	width := len(inPlanes[0][0])
	oh, ow := h-kh+1, width-kw+1
	if windowSpan := obs.StartSpan(ctx, "jtc.window"); windowSpan != nil {
		windowSpan.SetAttr("channels", fmt.Sprintf("%d-%d", c0, cn-1))
		windowSpan.SetAttr("sign", sign)
		passesBefore := st.Passes
		defer func() {
			windowSpan.SetAttr("passes", st.Passes-passesBefore)
			windowSpan.End()
		}()
	}

	clear(well)
	var maxSingle float64
	any := false
	for ci := c0; ci < cn; ci++ {
		kernel := rows[ci*kh : (ci+1)*kh]
		if planeIsZero(kernel) {
			// An all-zero split part: its weight DACs stay dark and no
			// pass is issued.
			continue
		}
		any = true
		for _, grp := range groups {
			sub := kernel[grp.j0 : grp.j0+grp.g]
			if planeIsZero(sub) {
				continue
			}
			// Input rows j0 .. j0+(oh-1)+g-1 pair with kernel rows
			// j0 .. j0+g-1 for output rows 0..oh-1.
			view := inPlanes[ci][grp.j0 : grp.j0+oh-1+grp.g]
			if e.direct {
				correlateInto(well, row, view, sub, &maxSingle)
				st.Add(grp.stats)
				continue
			}
			plane, stats := ConvPlane(view, sub, e.cfg.InputWaveguides, e.cfg.Correlator)
			st.Add(stats)
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					v := plane[y][x]
					well[y*ow+x] += v
					if a := math.Abs(v); a > maxSingle {
						maxSingle = a
					}
				}
			}
		}
	}
	if !any {
		return
	}
	// One ADC conversion per accumulation window. The ADC full scale is
	// sized for the window's worst case: M channels each up to the
	// largest single-channel output.
	if e.cfg.Quant.Enabled && e.cfg.Quant.ADCBits > 0 && maxSingle > 0 {
		fullScale := maxSingle * float64(cn-c0)
		levels := math.Exp2(float64(e.cfg.Quant.ADCBits)) - 1
		for i, v := range well {
			q := math.Round(v/fullScale*levels) / levels * fullScale
			well[i] = q
		}
	}
	for i, v := range well {
		acc[i] += sign * v
	}
}

// quantizeInput validates and quantizes the activation tensor in a single
// traversal: the scan that finds the quantization maximum also rejects
// negative values (the optical system transports amplitudes), so the
// input is never walked twice. It returns the quantized levels plus the
// scale such that value ≈ level·scale; disabled quantization returns the
// input and scale 1 (after the non-negativity scan, which always runs).
func (e *Engine) quantizeInput(data []float64, bits int) ([]float64, float64) {
	var max float64
	for _, v := range data {
		if v < 0 {
			panic("jtc: negative activation; the optical input must be non-negative")
		}
		if v > max {
			max = v
		}
	}
	if !e.cfg.Quant.Enabled || bits <= 0 || max == 0 {
		return data, 1
	}
	levels := math.Exp2(float64(bits)) - 1
	scale := max / levels
	out := make([]float64, len(data))
	for i, v := range data {
		out[i] = math.Round(v / scale)
	}
	return out, scale
}

// splitQuantizeWeights performs the pseudo-negative split w = w⁺ - w⁻ with
// both parts non-negative, quantizing each to WeightBits. Returns the two
// parts (flat, same layout as weights) and the shared scale.
func (e *Engine) splitQuantizeWeights(weights *tensor.Tensor) (pos, neg []float64, scale float64) {
	pos = make([]float64, len(weights.Data))
	neg = make([]float64, len(weights.Data))
	scale = 1
	var max float64
	for _, v := range weights.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	quant := e.cfg.Quant.Enabled && e.cfg.Quant.WeightBits > 0 && max > 0
	if quant {
		levels := math.Exp2(float64(e.cfg.Quant.WeightBits)) - 1
		scale = max / levels
	}
	for i, v := range weights.Data {
		x := v
		if quant {
			x = math.Round(v / scale)
		}
		if x >= 0 {
			pos[i] = x
		} else {
			neg[i] = -x
		}
	}
	return pos, neg, scale
}

func asPlane(flat []float64, h, w int) [][]float64 {
	p := make([][]float64, h)
	for y := 0; y < h; y++ {
		p[y] = flat[y*w : (y+1)*w]
	}
	return p
}

func planeIsZero(p [][]float64) bool {
	for _, row := range p {
		for _, v := range row {
			if v != 0 {
				return false
			}
		}
	}
	return true
}
