// Package sim is the shared run pipeline behind the refocus command-line
// tools and examples: resolve a design point (named preset or JSON config
// file) and a benchmark set, apply overrides, validate, evaluate, and
// render the reports as text or JSON. The binaries keep only flag parsing;
// everything that used to be duplicated name-switch glue lives here, so a
// future serving layer can reuse the exact same lifecycle for requests.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
	"refocus/internal/obs"
	"refocus/internal/phys"
)

// Options selects what to evaluate and how to render it.
type Options struct {
	// Preset names a registry design point (arch.PresetByName). Ignored
	// when ConfigFile is set.
	Preset string
	// ConfigFile is a JSON design point (see LoadConfigFile for the
	// schema, including the optional "Base" preset overlay).
	ConfigFile string
	// Network is a registered network name (nn.Resolve, case-insensitive)
	// or "all" for the paper's five CNN benchmarks. Ignored when
	// NetworkFile or NetworkSpec is set.
	Network string
	// NetworkFile is a JSON network spec to evaluate instead of a named
	// workload (see nn.ParseNetwork for the schema).
	NetworkFile string
	// NetworkSpec is an already-parsed inline network. The serving layer
	// lands request-body specs here; a spec given both ways is an error.
	NetworkSpec *nn.Network
	// Override mutates the resolved config before validation (flag
	// overrides like -batch land here). Optional.
	Override func(*arch.SystemConfig)
	// WithDRAM includes DRAM power in the printed totals (§7.3 view).
	WithDRAM bool
	// Profile also prints the top-N layer consumers when positive.
	Profile int
	// JSON renders machine-readable reports instead of text.
	JSON bool
	// Faults, when non-nil and not zero, evaluates the degraded machine
	// the fault set leaves behind (see internal/faults) instead of the
	// healthy design point. FaultsFile loads it from JSON; a set given
	// both ways is an error.
	Faults     *faults.FaultSet
	FaultsFile string
}

// resolveFaults returns the fault set the options name, validated
// against cfg: nil for none or for a zero set, which is the healthy
// machine, as it is on /v1/evaluate.
func (o Options) resolveFaults(cfg arch.SystemConfig) (*faults.FaultSet, error) {
	if o.Faults != nil && o.FaultsFile != "" {
		return nil, fmt.Errorf("sim: both Faults and FaultsFile set; pick one")
	}
	fs := o.Faults
	if o.FaultsFile != "" {
		loaded, err := faults.Load(o.FaultsFile)
		if err != nil {
			return nil, err
		}
		fs = &loaded
	}
	if fs == nil {
		return nil, nil
	}
	return fs.ForConfig(cfg)
}

// ResolveConfig returns the design point the options name: the config
// file when set (strict JSON, optionally overlaid on a "Base" preset),
// otherwise the named preset. The result is not yet validated — Run
// validates after overrides are applied.
func ResolveConfig(preset, configFile string) (arch.SystemConfig, error) {
	if configFile != "" {
		return LoadConfigFile(configFile)
	}
	return arch.PresetByName(preset)
}

// ResolveDesignPoint resolves the preset-or-config naming that evaluate
// requests, robustness campaigns and optimize searches share: exactly one
// of preset (a registry name, arch.PresetByName) or config (the
// LoadConfig schema) must be set. The result is not yet validated, so a
// caller can merge overrides first.
func ResolveDesignPoint(preset string, config []byte) (arch.SystemConfig, error) {
	switch {
	case preset != "" && len(config) > 0:
		return arch.SystemConfig{}, fmt.Errorf("sim: design point names both Preset and Config; pick one")
	case preset != "":
		return arch.PresetByName(preset)
	case len(config) > 0:
		return LoadConfig(config)
	default:
		return arch.SystemConfig{}, fmt.Errorf("sim: design point must name a Preset or carry a Config")
	}
}

// configFileSchema is the on-disk form: every arch.SystemConfig field plus
// an optional Base naming the preset the file's fields overlay. A file
// without Base must therefore spell out a complete design point.
type configFileSchema struct {
	Base string
	arch.SystemConfig
}

// LoadConfigFile reads a JSON design point. Unknown fields are rejected;
// fields absent from the file keep the Base preset's values (or Go zero
// values without a Base, which validation will then reject with a field
// name rather than a crash).
func LoadConfigFile(path string) (arch.SystemConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return arch.SystemConfig{}, fmt.Errorf("sim: %w", err)
	}
	return LoadConfig(data)
}

// LoadConfig parses the JSON design-point schema of LoadConfigFile.
func LoadConfig(data []byte) (arch.SystemConfig, error) {
	var base struct{ Base string }
	if err := json.Unmarshal(data, &base); err != nil {
		return arch.SystemConfig{}, fmt.Errorf("sim: parsing config: %w", err)
	}
	file := configFileSchema{}
	if base.Base != "" {
		cfg, err := arch.PresetByName(base.Base)
		if err != nil {
			return arch.SystemConfig{}, fmt.Errorf("sim: config Base: %w", err)
		}
		file.SystemConfig = cfg
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return arch.SystemConfig{}, fmt.Errorf("sim: parsing config: %w", err)
	}
	return file.SystemConfig, nil
}

// ResolveNetworks returns the workload set a -network argument names:
// one registered network (case-insensitive), or the paper's five CNN
// benchmarks for "all", as copies of the registry entries
// (ResolveRegistered), one allocation each. A miss lists every valid
// name.
func ResolveNetworks(name string) ([]nn.Network, error) {
	regs, err := ResolveRegistered(name)
	if err != nil {
		return nil, err
	}
	return clones(regs), nil
}

// ResolveRegistered resolves a workload name (nn.Resolve) to the registry
// entries it selects, whose names and hashes read in place; a miss is an
// error listing every valid name. The serving layer copies only the
// networks a cache misses.
func ResolveRegistered(name string) ([]nn.Registered, error) {
	regs, ok := nn.Resolve(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown network %q (known: %s, or \"all\")", name, strings.Join(nn.Names(), ", "))
	}
	return regs, nil
}

// clones copies registry entries for evaluation.
func clones(regs []nn.Registered) []nn.Network {
	nets := make([]nn.Network, len(regs))
	for i, r := range regs {
		nets[i] = r.Network()
	}
	return nets
}

// Target is what a job spec evaluates, resolved: a validated design point
// and the registry entries of its workload.
type Target struct {
	Config   arch.SystemConfig
	Networks []nn.Registered
}

// ResolveTarget resolves a job spec's design point (ResolveDesignPoint,
// then validated) and its workload name (ResolveRegistered), in that
// order, without copying a network. Robustness campaigns and design
// searches both resolve here, and take their job IDs from Identity.
func ResolveTarget(preset string, config []byte, network string) (Target, error) {
	cfg, err := ResolveDesignPoint(preset, config)
	if err != nil {
		return Target{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Target{}, err
	}
	regs, err := ResolveRegistered(network)
	if err != nil {
		return Target{}, err
	}
	return Target{Config: cfg, Networks: regs}, nil
}

// Clones returns copies of the target's networks, for evaluation.
func (t Target) Clones() []nn.Network { return clones(t.Networks) }

// Identity returns what a job ID names the target by: the design point's
// canonical hash (arch.ConfigHash) and each network's registry hash.
func (t Target) Identity() (configHash string, networkHashes []string, err error) {
	if configHash, err = arch.ConfigHash(t.Config); err != nil {
		return "", nil, err
	}
	networkHashes = make([]string, len(t.Networks))
	for i, r := range t.Networks {
		networkHashes[i] = r.Hash()
	}
	return configHash, networkHashes, nil
}

// LoadNetworkFile reads and strictly parses a JSON network spec.
func LoadNetworkFile(path string) (nn.Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nn.Network{}, fmt.Errorf("sim: %w", err)
	}
	return nn.ParseNetwork(data)
}

// Workloads returns the networks the options select: the inline
// spec or spec file when given (validated, overriding any Network name),
// otherwise the named workload set. Tools that need the resolved
// workloads without evaluating (-dump-network) call this directly.
func (o Options) Workloads() ([]nn.Network, error) {
	if o.NetworkSpec != nil && o.NetworkFile != "" {
		return nil, fmt.Errorf("sim: both NetworkSpec and NetworkFile set; pick one")
	}
	if o.NetworkSpec != nil {
		if err := o.NetworkSpec.Validate(); err != nil {
			return nil, err
		}
		return []nn.Network{*o.NetworkSpec}, nil
	}
	if o.NetworkFile != "" {
		net, err := LoadNetworkFile(o.NetworkFile)
		if err != nil {
			return nil, err
		}
		return []nn.Network{net}, nil
	}
	return ResolveNetworks(o.Network)
}

// Result is the structured outcome of one pipeline run: the resolved
// (and validated) design point, the benchmark set, and one report per
// network in input order. The serving layer returns these directly;
// the command-line tools render them.
type Result struct {
	Config   arch.SystemConfig
	Networks []nn.Network
	Reports  []arch.Report
	// Degradation is the fault remapping record when the run evaluated
	// a degraded machine (Options.Faults/FaultsFile); nil for healthy
	// runs, a zero fault set included. Reports then carry the degraded
	// numbers.
	Degradation *faults.Degradation
}

// Evaluate runs the pipeline up to (but not including) rendering:
// resolve → override → validate → evaluate. Every failure comes back as
// an error carrying the offending field or name; nothing panics on user
// input.
func Evaluate(opts Options) (Result, error) {
	return EvaluateCtx(context.Background(), opts)
}

// EvaluateCtx is Evaluate honoring the context: cancellation stops the
// evaluation fan-out, and a context carrying an obs.Trace records one
// span per pipeline stage (resolve, validate, evaluate) with the
// per-point spans of arch.EvaluateAllCtx nested inside.
func EvaluateCtx(ctx context.Context, opts Options) (Result, error) {
	resolveSpan := obs.StartSpan(ctx, "sim.resolve")
	cfg, err := ResolveConfig(opts.Preset, opts.ConfigFile)
	if err != nil {
		resolveSpan.End()
		return Result{}, err
	}
	if opts.Override != nil {
		opts.Override(&cfg)
	}
	resolveSpan.SetAttr("config", cfg.Name)
	resolveSpan.End()
	validateSpan := obs.StartSpan(ctx, "sim.validate")
	err = cfg.Validate()
	validateSpan.End()
	if err != nil {
		return Result{}, err
	}
	nets, err := opts.Workloads()
	if err != nil {
		return Result{}, err
	}
	fs, err := opts.resolveFaults(cfg)
	if err != nil {
		return Result{}, err
	}
	evalSpan := obs.StartSpan(ctx, "sim.evaluate")
	evalSpan.SetAttr("networks", len(nets))
	defer evalSpan.End()
	reports, deg, err := faults.EvaluateAllCtx(ctx, cfg, fs, nets)
	if err != nil {
		return Result{}, err
	}
	return Result{Config: cfg, Networks: nets, Reports: reports, Degradation: deg}, nil
}

// Run executes the full pipeline: resolve → override → validate →
// evaluate → render. It shares Evaluate's error convention.
func Run(opts Options, out io.Writer) error {
	return RunCtx(context.Background(), opts, out)
}

// RunCtx is Run honoring the context; with an obs.Trace attached, the
// render stage gets its own span next to EvaluateCtx's pipeline spans.
func RunCtx(ctx context.Context, opts Options, out io.Writer) error {
	res, err := EvaluateCtx(ctx, opts)
	if err != nil {
		return err
	}
	renderSpan := obs.StartSpan(ctx, "sim.render")
	defer renderSpan.End()
	if opts.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Reports)
	}
	return renderText(res, opts, out)
}

// renderText prints the human-readable report refocus-sim historically
// emitted: a config header, then per-network power/performance lines.
// Degraded runs announce the remapping before any number.
func renderText(res Result, opts Options, out io.Writer) error {
	cfg, nets, reports := res.Config, res.Networks, res.Reports
	area := arch.MustComputeArea(cfg) // cfg validated by Run
	fmt.Fprintf(out, "config %s: %d RFCUs, T=%d, %d wavelengths, M=%d, buffer=%v, reuses=%d\n",
		cfg.Name, cfg.NRFCU, cfg.T, cfg.NLambda, cfg.M, cfg.Buffer, cfg.Reuses)
	if d := res.Degradation; d != nil {
		name := d.FaultSet
		if name == "" {
			name = "unnamed fault set"
		}
		fmt.Fprintf(out, "DEGRADED by %s: %d/%d healthy RFCUs, effective λ=%d, buffer=%v, reuses=%d (trip loss %.3f dB)\n",
			name, d.HealthyRFCUs, cfg.NRFCU, d.EffectiveLambda, d.EffectiveBuffer, d.EffectiveReuses, d.DelayTripLossDB)
	}
	fmt.Fprintf(out, "area: %.1f mm² total (%.1f photonic, %.1f SRAM+buffers, %.1f converters+logic)\n\n",
		phys.M2ToMM2(area.Total()), phys.M2ToMM2(area.Photonic()),
		phys.M2ToMM2(area.SRAM+area.DataBuffer), phys.M2ToMM2(area.Converters+area.CMOSLogic))

	for i, net := range nets {
		r := reports[i]
		p := r.Power
		total := p.Total()
		if opts.WithDRAM {
			total = p.TotalWithDRAM()
		}
		fmt.Fprintf(out, "%s (%.2f GMACs, %d layers)\n", net.Name, net.TotalMACs()/1e9, net.LayerCount())
		fmt.Fprintf(out, "  latency %.3f ms   FPS %.0f   power %.2f W   FPS/W %.1f   FPS/mm² %.1f\n",
			r.Latency*1e3, r.FPS, total, r.FPS/total, r.FPSPerMM2)
		fmt.Fprintf(out, "  power: inDAC %.2f  wDAC %.2f  ADC %.2f  laser %.2f  MRR %.3f  SRAM %.2f  buffers %.2f  CMOS %.2f  (DRAM %.2f)\n",
			p.InputDAC, p.WeightDAC, p.ADC, p.Laser, p.MRR,
			p.ActivationSRAM+p.WeightSRAM+p.SRAMLeakage, p.DataBuffers, p.CMOS, p.DRAM)
		if opts.Profile > 0 {
			profiles, err := arch.EvaluateLayers(cfg, net)
			if err != nil {
				return err
			}
			for _, lp := range arch.TopConsumers(profiles, "cycles", opts.Profile) {
				detail := string(lp.Layer.Kind()) + ", multi-pass"
				if lp.Plan != nil {
					detail = fmt.Sprintf("%v, %d regions", lp.Plan.Geometry.Strategy, lp.Plan.Regions)
				}
				fmt.Fprintf(out, "  hot layer %-18s %5.1f%% of cycles  %5.1f%% of energy (%s)\n",
					lp.Layer.Name(), 100*lp.ShareOfCycles, 100*lp.ShareOfEnergy, detail)
			}
		}
	}
	return nil
}

// ListKnown prints the preset registry and benchmark networks — the
// vocabulary of -config/-network — one entry per line.
func ListKnown(out io.Writer) {
	fmt.Fprintln(out, "presets:")
	for _, p := range arch.Presets() {
		alias := ""
		if len(p.Aliases) > 0 {
			alias = " (" + strings.Join(p.Aliases, ", ") + ")"
		}
		fmt.Fprintf(out, "  %-18s%s  %s\n", p.Name, alias, p.Description)
	}
	fmt.Fprintln(out, "networks:")
	for _, n := range nn.Networks() {
		kinds := map[nn.LayerKind]bool{}
		parts := make([]string, 0, 3)
		for _, l := range n.Layers {
			if k := l.Kind(); !kinds[k] {
				kinds[k] = true
				parts = append(parts, string(k))
			}
		}
		fmt.Fprintf(out, "  %-10s %3d layers  %6.2f GMACs  (%s)\n",
			n.Name, n.LayerCount(), n.TotalMACs()/1e9, strings.Join(parts, ", "))
	}
	fmt.Fprintln(out, "  all        the five CNN benchmark networks")
}

// ListNetworks prints the full workload registry with content hashes —
// the identities the serving cache and -dump-network round-trips key on.
func ListNetworks(out io.Writer) {
	fmt.Fprintln(out, "name        layers  GMACs     hash")
	hashes := nn.Hashes()
	for i, n := range nn.Networks() {
		fmt.Fprintf(out, "%-11s %5d  %8.2f  %s\n",
			n.Name, n.LayerCount(), n.TotalMACs()/1e9, hashes[i])
	}
}

// Main wraps a tool's run function with the uniform error convention the
// three refocus binaries share: errors go to stderr prefixed by the tool
// name, and the process exits nonzero.
func Main(tool string, run func(args []string, out io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
}
