package arch

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"refocus/internal/dataflow"
	"refocus/internal/memory"
	"refocus/internal/nn"
	"refocus/internal/obs"
)

// PowerBreakdown itemizes average system power in watts while running a
// network. DRAM is kept separate because the paper's headline numbers —
// like all prior photonic accelerator work it compares against — exclude
// DRAM power, discussing it only in §7.3.
type PowerBreakdown struct {
	InputDAC  float64
	WeightDAC float64
	ADC       float64
	Laser     float64
	MRR       float64

	ActivationSRAM float64
	WeightSRAM     float64
	DataBuffers    float64
	SRAMLeakage    float64

	CMOS float64
	DRAM float64
}

// DAC returns total DAC power.
func (p PowerBreakdown) DAC() float64 { return p.InputDAC + p.WeightDAC }

// Converters returns ADC+DAC power (the quantity Figure 10's 1.72× claim
// compares).
func (p PowerBreakdown) Converters() float64 { return p.DAC() + p.ADC }

// Memory returns all on-chip memory power.
func (p PowerBreakdown) Memory() float64 {
	return p.ActivationSRAM + p.WeightSRAM + p.DataBuffers + p.SRAMLeakage
}

// Total returns system power excluding DRAM (the paper's convention).
func (p PowerBreakdown) Total() float64 {
	return p.Converters() + p.Laser + p.MRR + p.Memory() + p.CMOS
}

// TotalWithDRAM includes DRAM (the §7.3 discussion).
func (p PowerBreakdown) TotalWithDRAM() float64 { return p.Total() + p.DRAM }

// Report is the evaluation result of one (config, network) pair.
type Report struct {
	Config  string
	Network string

	// Latency is one batch-1 inference through the conv layers, seconds.
	Latency float64
	// Energy excludes DRAM; DRAMEnergy is reported separately.
	Energy     float64
	DRAMEnergy float64

	Power PowerBreakdown
	Area  AreaBreakdown

	FPS        float64
	FPSPerWatt float64
	FPSPerMM2  float64
	// PAP is the §5.4.1 power-efficiency·area-efficiency product.
	PAP float64
	// InvEDP is 1/(energy·delay).
	InvEDP float64
}

// Evaluate runs the bottom-up model for one network on one configuration.
// It validates both inputs and reports — rather than panics on — malformed
// configs and layer/config mismatches.
func Evaluate(cfg SystemConfig, net nn.Network) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	df := cfg.DataflowConfig()
	df.InputsFromDRAM = true
	ev, err := dataflow.NetworkEvents(net, df)
	if err != nil {
		return Report{}, fmt.Errorf("arch: evaluating %s on %s: %w", net.Name, cfg.label(), err)
	}
	ct := cfg.Components

	if ws := cfg.WeightSharing; ws != nil {
		// Parameters were range-checked by Validate. Channel reordering
		// skips same-codeword kernel rewrites; the codebook representation
		// shrinks weight SRAM and DRAM traffic.
		ev.WeightDACWrites *= 1 - ws.WeightDACReduction
		ev.WeightSRAMReads /= ws.CompressionRatio
		weightBytes := float64(net.TotalWeightBytes())
		ev.DRAMReads -= weightBytes - weightBytes/ws.CompressionRatio
	}

	latency := ev.Cycles * ct.CyclePeriod()

	// Per-event energies from Table 6.
	eDAC := ct.DACPower / ct.ClockFrequency
	eADC := ct.ADCPower / ct.ADCFrequency()
	eMRR := ct.MRRPower / ct.ClockFrequency

	// The config passed Validate, so SRAM sizes and buffer-plan inputs are
	// known-positive — Must* here cannot fire on user input.
	actSRAM := memory.MustSRAM("activation", cfg.ActivationSRAMBytes, 32)
	weightSRAM := memory.MustSRAM("weight", cfg.WeightSRAMBytesPerRFCU, 32)
	plan := bufferPlan(cfg)
	inBuf := plan.InputBuffer(true)
	outBuf := plan.OutputBuffer(true)

	var p PowerBreakdown
	dacDerate := cfg.Calib.DACActivityFactor
	if dacDerate == 0 {
		dacDerate = 1
	}
	p.InputDAC = ev.InputDACWrites * eDAC * dacDerate / latency
	p.WeightDAC = ev.WeightDACWrites * eDAC * dacDerate / latency
	p.ADC = ev.ADCReads * eADC / latency
	p.MRR = ev.MRRActiveCycles * eMRR / latency

	cs := censusOf(cfg)
	p.Laser = ct.LaserMinPowerPerWaveguide *
		(float64(cs.InputDACs)*cfg.LaserPowerFactor() + float64(cs.WeightDACs))
	if cfg.EONonlinearity {
		// The active Fourier-plane stage: one EOM (MRR-class drive) per
		// waveguide per RFCU, live every compute cycle; its photodetector
		// is passive but the O/E/O hop also costs extra laser headroom.
		p.MRR += float64(cfg.T*cfg.NRFCU) * ct.MRRPower
		p.Laser *= 1.5 // regenerating the optical signal after detection
	}

	p.ActivationSRAM = (ev.ActSRAMReads + ev.ActSRAMWrites) * actSRAM.AccessEnergyPerByte() / latency
	p.WeightSRAM = ev.WeightSRAMReads * weightSRAM.AccessEnergyPerByte() / latency
	if cfg.UseDataBuffers {
		p.DataBuffers = ((ev.InputBufferReads+ev.InputBufferWrites)*inBuf.AccessEnergyPerByte() +
			ev.OutputBufferAccess*outBuf.AccessEnergyPerByte()) / latency
	}
	p.SRAMLeakage = actSRAM.LeakagePower() + float64(cfg.NRFCU)*weightSRAM.LeakagePower()
	if cfg.UseDataBuffers {
		p.SRAMLeakage += inBuf.LeakagePower() + float64(cfg.NRFCU)*outBuf.LeakagePower()
	}

	p.CMOS = cfg.CMOS.DynamicEnergy(ev.InputDACWrites, ev.ADCReads)/latency +
		cfg.CMOS.ControlPower(cfg.NRFCU)

	p.DRAM = cfg.DRAM.AccessEnergy(ev.DRAMReads) / latency

	area := areaOf(cfg)
	r := Report{
		Config:     cfg.Name,
		Network:    net.Name,
		Latency:    latency,
		Energy:     p.Total() * latency,
		DRAMEnergy: p.DRAM * latency,
		Power:      p,
		Area:       area,
	}
	r.FPS = 1 / latency
	r.FPSPerWatt = r.FPS / p.Total()
	r.FPSPerMM2 = r.FPS / (area.Total() / 1e-6) // per mm²
	r.PAP = r.FPSPerWatt * r.FPSPerMM2
	r.InvEDP = 1 / (r.Energy * latency)
	if err := r.checkFinite(); err != nil {
		return Report{}, fmt.Errorf("arch: evaluating %s on %s: %w", net.Name, cfg.label(), err)
	}
	return r, nil
}

// checkFinite names the first non-finite field of r in declaration
// order. A design point past what the model can price (a delay line or
// reuse count so long that the laser power overflows) is an input
// error, never a report: JSON cannot carry ±Inf or NaN, and a cache must
// not keep one.
func (r Report) checkFinite() error {
	p, a := r.Power, r.Area
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Latency", r.Latency}, {"Energy", r.Energy}, {"DRAMEnergy", r.DRAMEnergy},
		{"Power.InputDAC", p.InputDAC}, {"Power.WeightDAC", p.WeightDAC}, {"Power.ADC", p.ADC},
		{"Power.Laser", p.Laser}, {"Power.MRR", p.MRR}, {"Power.ActivationSRAM", p.ActivationSRAM},
		{"Power.WeightSRAM", p.WeightSRAM}, {"Power.DataBuffers", p.DataBuffers},
		{"Power.SRAMLeakage", p.SRAMLeakage}, {"Power.CMOS", p.CMOS}, {"Power.DRAM", p.DRAM},
		{"Area.Lens", a.Lens}, {"Area.DelayLine", a.DelayLine}, {"Area.Photodetector", a.Photodetector},
		{"Area.MRR", a.MRR}, {"Area.YJunction", a.YJunction}, {"Area.Laser", a.Laser},
		{"Area.Routing", a.Routing}, {"Area.Converters", a.Converters}, {"Area.CMOSLogic", a.CMOSLogic},
		{"Area.SRAM", a.SRAM}, {"Area.DataBuffer", a.DataBuffer},
		{"FPS", r.FPS}, {"FPSPerWatt", r.FPSPerWatt}, {"FPSPerMM2", r.FPSPerMM2},
		{"PAP", r.PAP}, {"InvEDP", r.InvEDP},
	} {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return fmt.Errorf("%s is %v, outside what the model can price", f.name, f.v)
		}
	}
	return nil
}

// MustEvaluate is Evaluate for configurations known valid by construction
// (the presets, sensitivity perturbations of them); an error is an internal
// invariant violation. The paper-regeneration code and examples use it.
func MustEvaluate(cfg SystemConfig, net nn.Network) Report {
	r, err := Evaluate(cfg, net)
	if err != nil {
		panic("arch: internal: " + err.Error())
	}
	return r
}

// ParallelFor runs body(0..n-1) across min(runtime.GOMAXPROCS(0), n)
// goroutines, stopping early (remaining iterations skipped) once ctx is
// canceled. Iterations must be independent; the call returns after every
// started iteration completes, with ctx.Err() if the loop was cut short.
// Each worker's body receives a context on its own trace lane, so spans
// from concurrent iterations render on separate rows instead of
// interleaving. It is the one bounded fan-out loop: the point loop here
// and faults.YieldSweep's trial loop both run on it, and GOMAXPROCS (the
// environment variable or runtime.GOMAXPROCS) is its one knob.
func ParallelFor(ctx context.Context, n int, body func(ctx context.Context, i int)) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			body(ctx, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := obs.Lane(ctx)
			for wctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(wctx, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// EvaluateAll evaluates every network on the configuration. Networks are
// independent design points, so they fan out across ParallelFor's
// workers; the result order (and every value in it — Evaluate is
// deterministic) matches the serial loop exactly. The first error (in
// input order, also deterministic) aborts the result.
func EvaluateAll(cfg SystemConfig, nets []nn.Network) ([]Report, error) {
	return EvaluateAllCtx(context.Background(), cfg, nets)
}

// EvaluateAllCtx is EvaluateAll honoring cancellation between design
// points: a canceled ctx stops the point loop mid-sweep (in-flight
// points finish, the rest never start) and returns ctx's error, so a
// timed-out request stops burning workers instead of running to
// completion.
func EvaluateAllCtx(ctx context.Context, cfg SystemConfig, nets []nn.Network) ([]Report, error) {
	return evaluatePoints(ctx, []SystemConfig{cfg}, nets)
}

// MustEvaluateAll is EvaluateAll for known-valid configurations; see
// MustEvaluate.
func MustEvaluateAll(cfg SystemConfig, nets []nn.Network) []Report {
	rs, err := EvaluateAll(cfg, nets)
	if err != nil {
		panic("arch: internal: " + err.Error())
	}
	return rs
}

// EvaluateGridCtx evaluates many configurations — a sweep's design
// points — against the same networks, fanning the (config, network)
// product out like EvaluateAllCtx, with the same early-stop contract.
// out[i] corresponds to cfgs[i] in order; the first error in input order
// aborts the result.
func EvaluateGridCtx(ctx context.Context, cfgs []SystemConfig, nets []nn.Network) ([][]Report, error) {
	flat, err := evaluatePoints(ctx, cfgs, nets)
	if err != nil {
		return nil, err
	}
	k := len(nets)
	out := make([][]Report, len(cfgs))
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return out, nil
}

// evaluatePoints is the one fan-out body: it evaluates every (config,
// network) pair, point i being cfgs[i/len(nets)] on nets[i%len(nets)],
// each under its own arch.evaluate span.
func evaluatePoints(ctx context.Context, cfgs []SystemConfig, nets []nn.Network) ([]Report, error) {
	k := len(nets)
	out := make([]Report, len(cfgs)*k)
	errs := make([]error, len(out))
	if err := ParallelFor(ctx, len(out), func(wctx context.Context, i int) {
		cfg, net := &cfgs[i/k], nets[i%k]
		sp := obs.StartSpan(wctx, "arch.evaluate")
		sp.SetAttr("config", cfg.Name)
		sp.SetAttr("network", net.Name)
		out[i], errs[i] = Evaluate(*cfg, net)
		sp.End()
	}); err != nil {
		return nil, fmt.Errorf("arch: evaluation canceled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Metric extracts a scalar from a report for aggregation.
type Metric func(Report) float64

// Standard metrics.
var (
	MetricFPS        Metric = func(r Report) float64 { return r.FPS }
	MetricFPSPerWatt Metric = func(r Report) float64 { return r.FPSPerWatt }
	MetricFPSPerMM2  Metric = func(r Report) float64 { return r.FPSPerMM2 }
	MetricPAP        Metric = func(r Report) float64 { return r.PAP }
	MetricInvEDP     Metric = func(r Report) float64 { return r.InvEDP }
)

// GeoMean aggregates a metric over reports the way the paper does
// (geometric mean across networks).
func GeoMean(reports []Report, m Metric) float64 {
	if len(reports) == 0 {
		panic("arch: GeoMean of no reports")
	}
	sum := 0.0
	for _, r := range reports {
		sum += math.Log(m(r))
	}
	return math.Exp(sum / float64(len(reports)))
}

// MeanPower averages total power over reports (the paper's "average system
// power" across the five CNNs).
func MeanPower(reports []Report) float64 {
	var sum float64
	for _, r := range reports {
		sum += r.Power.Total()
	}
	return sum / float64(len(reports))
}

// MeanBreakdown averages each power component across reports.
func MeanBreakdown(reports []Report) PowerBreakdown {
	var b PowerBreakdown
	n := float64(len(reports))
	for _, r := range reports {
		b.InputDAC += r.Power.InputDAC / n
		b.WeightDAC += r.Power.WeightDAC / n
		b.ADC += r.Power.ADC / n
		b.Laser += r.Power.Laser / n
		b.MRR += r.Power.MRR / n
		b.ActivationSRAM += r.Power.ActivationSRAM / n
		b.WeightSRAM += r.Power.WeightSRAM / n
		b.DataBuffers += r.Power.DataBuffers / n
		b.SRAMLeakage += r.Power.SRAMLeakage / n
		b.CMOS += r.Power.CMOS / n
		b.DRAM += r.Power.DRAM / n
	}
	return b
}
