// Command refocus-sweep explores the ReFOCUS design space: delay length M,
// reuse count R, wavelength count, RFCU count, and Y-junction split ratio,
// printing the metric surface the §5.4 design choices were made on.
//
// Design points are independent, so the sweep evaluates every
// (configuration, network) pair across GOMAXPROCS worker goroutines (set
// the GOMAXPROCS environment variable to change the count) and prints
// rows in their original order.
//
// Usage:
//
//	refocus-sweep -sweep m|reuse|lambda|rfcu|alpha [-buffer fb|ff]
//	              [-config-file point.json] [-network BERT-base]
//	              [-network-file spec.json] [-list]
//	              [-trace out.json] [-pprof-addr host:port]
//	refocus-sweep -faults [-trials 100] [-seed 1] [-fault-rfcu-p 0.05]
//	              [-fault-lambda-p 0.02] [-fault-loss-db 0.5]
//
// The swept base design is a registry preset (-buffer accepts any preset
// name or alias) or a JSON design point (-config-file); -list prints the
// known presets and networks. Every sweep varies that base: the reuse and
// alpha sweeps price its feedback buffer (its components, M and, for
// alpha, R) and reject a base without one. The swept workload set
// defaults to the paper's Table 4 CNNs; -network selects any registry
// workload by name ("all" for the five CNN benchmarks) and -network-file
// sweeps a serialized network spec instead, so transformer workloads like
// BERT-base and ViT-B/16 sweep through the same machinery. -trace records the sweep's span timeline
// (one lane per evaluation worker) as Chrome trace_event JSON, and
// -pprof-addr exposes net/http/pprof for profiling long sweeps.
//
// -faults switches to the Monte Carlo yield sweep: each trial samples a
// fault set (dead RFCUs, failed wavelengths, buffer loss drift), degrades
// the base design with it, and evaluates the surviving machine. The
// output is the nominal point, the throughput and energy distributions
// across trials, the hard-failure yield, and — for feedback-buffer
// designs — the R-vs-excess-loss resilience curve. The same -seed always
// reproduces the same trial set, at any GOMAXPROCS.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"refocus/internal/arch"
	"refocus/internal/buffers"
	"refocus/internal/faults"
	"refocus/internal/nn"
	"refocus/internal/obs"
	"refocus/internal/phys"
	"refocus/internal/sim"
)

// metrics is one design point's geomean summary row.
type metrics struct {
	fpsw, fpsmm2, pap float64
}

// evalGrid evaluates all sweep configurations in parallel and reduces each
// to its geomean metric row, preserving input order.
func evalGrid(ctx context.Context, cfgs []arch.SystemConfig, nets []nn.Network) ([]metrics, error) {
	grid, err := arch.EvaluateGridCtx(ctx, cfgs, nets)
	if err != nil {
		return nil, err
	}
	out := make([]metrics, len(cfgs))
	for i, rs := range grid {
		out[i] = metrics{
			fpsw:   arch.GeoMean(rs, arch.MetricFPSPerWatt),
			fpsmm2: arch.GeoMean(rs, arch.MetricFPSPerMM2),
			pap:    arch.GeoMean(rs, arch.MetricPAP),
		}
	}
	return out, nil
}

// runYieldSweep runs the -faults Monte Carlo mode: yield, throughput and
// energy distributions over sampled fault sets, plus the resilience
// curve for feedback designs.
func runYieldSweep(ctx context.Context, base arch.SystemConfig, nets []nn.Network, model faults.MonteCarloModel, trials int, seed int64, out io.Writer) error {
	res, err := faults.YieldSweep(ctx, base, nets, model, trials, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "yield sweep on %s: %d trials, seed %d\n", base.Name, res.Trials, seed)
	fmt.Fprintf(out, "fault model: RFCU fail p=%g, wavelength fail p=%g, buffer loss σ=%g dB\n",
		model.RFCUFailProb, model.WavelengthFailProb, model.BufferLossSigmaDB)
	survivors := res.Trials - res.Failed
	fmt.Fprintf(out, "hard failures (no healthy compute path): %d/%d  (yield %.1f%%)\n",
		res.Failed, res.Trials, 100*float64(survivors)/float64(res.Trials))
	fmt.Fprintf(out, "nominal (fault-free): geomean FPS %.1f, energy/inference %.3g J\n\n", res.NominalFPS, res.NominalEnergy)
	if survivors > 0 {
		fmt.Fprintln(out, "surviving chips        mean      min       p10       median    p90       max")
		d := res.FPS
		fmt.Fprintf(out, "geomean FPS            %-9.1f %-9.1f %-9.1f %-9.1f %-9.1f %.1f\n",
			d.Mean, d.Min, d.P10, d.Median, d.P90, d.Max)
		e := res.Energy
		fmt.Fprintf(out, "energy/inference (J)   %-9.3g %-9.3g %-9.3g %-9.3g %-9.3g %.3g\n\n",
			e.Mean, e.Min, e.P10, e.Median, e.P90, e.Max)
	}
	if base.Buffer != arch.Feedback {
		return nil
	}
	pts, err := faults.ResilienceCurve(base, 6, 13)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "resilience: reuse derating vs excess buffer loss")
	fmt.Fprintln(out, "excess(dB)  R    rel laser power  dynamic range")
	for _, p := range pts {
		fmt.Fprintf(out, "%-11.2f %-4d %-16.2f %.2f\n",
			p.ExcessLossDB, p.EffectiveReuses, p.RelativeLaserPower, p.DynamicRange)
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("refocus-sweep", flag.ContinueOnError)
	sweep := fs.String("sweep", "m", "dimension: m, reuse, lambda, rfcu, alpha")
	buffer := fs.String("buffer", "fb", "base design preset for the sweep (see -list)")
	configFile := fs.String("config-file", "", "JSON design-point file as the sweep base (overrides -buffer)")
	network := fs.String("network", "", "registry workload to sweep instead of the Table 4 CNNs ('all' = the five benchmarks)")
	networkFile := fs.String("network-file", "", "JSON network spec to sweep (overrides -network)")
	list := fs.Bool("list", false, "print known presets and benchmark networks, then exit")
	faultsMode := fs.Bool("faults", false, "run the Monte Carlo yield sweep instead of a design-space sweep")
	trials := fs.Int("trials", 100, "Monte Carlo trials for -faults")
	seed := fs.Int64("seed", 1, "Monte Carlo seed for -faults (same seed, same trials)")
	rfcuP := fs.Float64("fault-rfcu-p", 0.05, "per-RFCU whole-unit failure probability for -faults")
	lambdaP := fs.Float64("fault-lambda-p", 0.02, "per-(RFCU, wavelength) laser failure probability for -faults")
	lossSigma := fs.Float64("fault-loss-db", 0.5, "half-normal σ of excess buffer trip loss in dB for -faults")
	traceFile := fs.String("trace", "", "write a Chrome trace_event JSON timeline of the sweep to this file")
	pprofAddr := fs.String("pprof-addr", "", "optional net/http/pprof listen address (empty disables profiling)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		sim.ListKnown(out)
		return nil
	}
	if *pprofAddr != "" {
		got, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("refocus-sweep: pprof listener: %w", err)
		}
		fmt.Fprintf(out, "pprof listening on %s\n", got)
	}
	ctx := context.Background()
	var tr *obs.Trace
	if *traceFile != "" {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}

	base, err := sim.ResolveConfig(*buffer, *configFile)
	if err != nil {
		return err
	}
	if err := base.Validate(); err != nil {
		return err
	}
	nets := nn.Table4Networks()
	if *network != "" || *networkFile != "" {
		nets, err = sim.Options{Network: *network, NetworkFile: *networkFile}.Workloads()
		if err != nil {
			return err
		}
	}

	root := obs.StartSpan(ctx, "refocus-sweep")
	err = runSelected(ctx, sweepOptions{
		sweep:      *sweep,
		faultsMode: *faultsMode,
		trials:     *trials,
		seed:       *seed,
		model: faults.MonteCarloModel{
			RFCUFailProb:       *rfcuP,
			WavelengthFailProb: *lambdaP,
			BufferLossSigmaDB:  *lossSigma,
		},
	}, base, nets, out)
	root.End()
	if err != nil {
		return err
	}
	if tr != nil {
		f, ferr := os.Create(*traceFile)
		if ferr != nil {
			return fmt.Errorf("refocus-sweep: trace file: %w", ferr)
		}
		if werr := tr.WriteJSON(f); werr != nil {
			f.Close()
			return fmt.Errorf("refocus-sweep: writing trace: %w", werr)
		}
		if cerr := f.Close(); cerr != nil {
			return fmt.Errorf("refocus-sweep: closing trace file: %w", cerr)
		}
	}
	return nil
}

// sweepOptions bundles the mode selection flags for runSelected.
type sweepOptions struct {
	sweep      string
	faultsMode bool
	trials     int
	seed       int64
	model      faults.MonteCarloModel
}

// runSelected dispatches to the Monte Carlo yield sweep or the chosen
// design-space sweep, under the caller's (possibly traced) context.
func runSelected(ctx context.Context, opts sweepOptions, base arch.SystemConfig, nets []nn.Network, out io.Writer) error {
	if opts.faultsMode {
		return runYieldSweep(ctx, base, nets, opts.model, opts.trials, opts.seed, out)
	}
	if opts.sweep == "reuse" || opts.sweep == "alpha" {
		if base.Buffer != arch.Feedback {
			return fmt.Errorf("the %s sweep prices a feedback buffer, and base %s has a %s buffer",
				opts.sweep, base.Name, base.Buffer)
		}
	}
	var err error
	switch opts.sweep {
	case "m":
		ms := []int{1, 2, 4, 8, 16, 32}
		cfgs := make([]arch.SystemConfig, len(ms))
		for i, m := range ms {
			cfg := base
			cfg.M = m
			cfg.NRFCU, err = arch.MaxRFCUsForBudget(base, m, 150*phys.MM2)
			if err != nil {
				return err
			}
			cfgs[i] = cfg
		}
		rows, err := evalGrid(ctx, cfgs, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "M    N_RFCU  FPS/W   FPS/mm²  PAP")
		for i, m := range ms {
			fmt.Fprintf(out, "%-4d %-7d %-7.0f %-8.1f %.3g\n", m, cfgs[i].NRFCU, rows[i].fpsw, rows[i].fpsmm2, rows[i].pap)
		}
	case "reuse":
		reuses := []int{1, 3, 7, 15, 31, 63}
		cfgs := make([]arch.SystemConfig, len(reuses))
		for i, r := range reuses {
			cfg := base
			cfg.Reuses = r
			cfgs[i] = cfg
		}
		rows, err := evalGrid(ctx, cfgs, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "R    α=1/(R+1)  rel laser power  dynamic range  FPS/W")
		for i, r := range reuses {
			fb, err := buffers.NewFeedbackBuffer(buffers.OptimalFeedbackAlpha(r), base.M, base.Components)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-4d %-10.4f %-16.2f %-14.2f %.0f\n",
				r, buffers.OptimalFeedbackAlpha(r), fb.RelativeLaserPower(r), fb.DynamicRange(r), rows[i].fpsw)
		}
	case "lambda":
		lambdas := []int{1, 2, 3, 4}
		cfgs := make([]arch.SystemConfig, len(lambdas))
		for i, l := range lambdas {
			cfg := base
			cfg.NLambda = l
			cfgs[i] = cfg
		}
		rows, err := evalGrid(ctx, cfgs, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Nλ   area(mm²)  FPS/W   FPS/mm²")
		for i, l := range lambdas {
			area, err := arch.ComputeArea(cfgs[i])
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-4d %-10.1f %-7.0f %.1f\n", l, phys.M2ToMM2(area.Total()), rows[i].fpsw, rows[i].fpsmm2)
		}
	case "rfcu":
		ns := []int{4, 8, 12, 16, 20, 24}
		cfgs := make([]arch.SystemConfig, len(ns))
		for i, n := range ns {
			cfg := base
			cfg.NRFCU = n
			cfgs[i] = cfg
		}
		rows, err := evalGrid(ctx, cfgs, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "N    photonic(mm²)  FPS/W   FPS/mm²  PAP")
		for i, n := range ns {
			area, err := arch.ComputeArea(cfgs[i])
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-4d %-14.1f %-7.0f %-8.1f %.3g\n", n, phys.M2ToMM2(area.Photonic()), rows[i].fpsw, rows[i].fpsmm2, rows[i].pap)
		}
	case "alpha":
		fmt.Fprintf(out, "α      %-23s dynamic range\n", fmt.Sprintf("rel laser power (R=%d)", base.Reuses))
		for _, a := range []float64{0.03125, 0.0625, 0.125, 0.25, 0.5} {
			fb, err := buffers.NewFeedbackBuffer(a, base.M, base.Components)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-6.4f %-23.4g %.4g\n", a, fb.RelativeLaserPower(base.Reuses), fb.DynamicRange(base.Reuses))
		}
	default:
		return fmt.Errorf("unknown sweep %q", opts.sweep)
	}
	return nil
}

func main() {
	sim.Main("refocus-sweep", run)
}
