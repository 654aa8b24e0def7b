// Package opt searches the ReFOCUS design space instead of sweeping it:
// multi-objective optimization over (M, N_RFCU, N_λ, R) producing a
// Pareto front over FPS, FPS/W, FPS/mm² and PAP — optionally with
// manufacturing yield from seeded faults.YieldSweep as one more axis —
// under area/power budget constraints ("best design under 150 mm² and
// 15 W for this network"). Table 4 of the paper answers this question
// by exhaustive hand-driven grids; this package answers it with
// pluggable strategies (random baseline, NSGA-II-style evolution,
// successive halving) behind one interface.
//
// Searches follow the internal/robust campaign playbook: a JSON Spec
// with a SHA-256 identity, per-candidate seeds derived purely from
// (search seed, generation, index) so results never depend on execution
// order or worker count, atomic per-candidate checkpoints that resume
// after SIGKILL with byte-identical fronts, and NDJSON incumbent
// streaming. The serving layer (internal/serve, internal/cluster)
// exposes this as POST /v1/optimize; candidate evaluations flow through
// the content-addressed result cache, so repeated points — common when
// strategies revisit promising regions — are free.
package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
	"refocus/internal/sim"
)

// Objective names one maximized search axis.
type Objective string

// The objective vocabulary. All objectives are maximized; PAP and the
// two density metrics already fold power/area into the value, while the
// hard budget constraints (AreaBudgetMM2, PowerBudgetW) are handled by
// constraint domination, not as objectives.
const (
	// ObjectiveFPS is geomean throughput in frames/s.
	ObjectiveFPS Objective = "fps"
	// ObjectiveFPSPerWatt is geomean power efficiency.
	ObjectiveFPSPerWatt Objective = "fps_per_watt"
	// ObjectiveFPSPerMM2 is geomean area efficiency.
	ObjectiveFPSPerMM2 Objective = "fps_per_mm2"
	// ObjectivePAP is the paper's geomean power-area-performance figure.
	ObjectivePAP Objective = "pap"
	// ObjectiveYield is the surviving fraction of a seeded Monte Carlo
	// manufacturing fleet (faults.YieldSweep); requires YieldTrials > 0.
	ObjectiveYield Objective = "yield"
)

// NumAxes is the dimensionality of the search grid: M, NRFCU, NLambda,
// Reuses.
const NumAxes = 4

// Candidate addresses one design point as indices into the Space's four
// value lists, in axis order (M, NRFCU, NLambda, Reuses).
type Candidate [NumAxes]int

// Space is the searched design grid: explicit value lists per axis,
// defaulting to the Table 4 ranges. The base design point (Spec.Preset
// or Spec.Config) supplies every field the space does not touch; when
// the base buffer is not Feedback the Reuses axis collapses to the base
// value, since reuse count only exists for the feedback buffer.
type Space struct {
	// M is the delay-line length axis.
	M []int `json:",omitempty"`
	// NRFCU is the compute-unit count axis.
	NRFCU []int `json:",omitempty"`
	// NLambda is the WDM wavelength axis.
	NLambda []int `json:",omitempty"`
	// Reuses is the feedback-buffer reuse axis.
	Reuses []int `json:",omitempty"`
}

// Spec describes one design-space search. Identical specs (after
// defaulting) share one search ID, so resubmitting a spec after a
// restart attaches to the existing checkpoint instead of starting over.
type Spec struct {
	// Name labels the search in reports; it is part of the identity.
	Name string `json:",omitempty"`
	// Preset is a base design-point registry name or alias ("fb", ...).
	// Exactly one of Preset or Config must be set.
	Preset string `json:",omitempty"`
	// Config is a base design point in the -config-file schema.
	Config json.RawMessage `json:",omitempty"`
	// Network is a registered workload name (case-insensitive) or "all";
	// empty defaults to "ResNet-50". Objectives are geomeans across the
	// resolved networks.
	Network string `json:",omitempty"`
	// Space is the searched grid; empty axes get the Table 4 defaults.
	Space Space
	// Objectives are the maximized axes; empty defaults to
	// [fps, fps_per_watt, fps_per_mm2, pap], plus yield when
	// YieldTrials > 0.
	Objectives []Objective `json:",omitempty"`
	// AreaBudgetMM2 and PowerBudgetW are hard feasibility constraints
	// (0 = unconstrained). Infeasible points never enter the front;
	// strategies rank them below every feasible point, by violation.
	AreaBudgetMM2 float64 `json:",omitempty"`
	PowerBudgetW  float64 `json:",omitempty"`
	// Strategy names the search strategy ("random", "evolve" or
	// "halving"); empty defaults to "evolve".
	Strategy string `json:",omitempty"`
	// Generations is the number of sequential propose/evaluate rounds;
	// 0 defaults to 8.
	Generations int `json:",omitempty"`
	// Population is the per-generation candidate budget; 0 defaults
	// to 16. Successive halving shrinks below it on later rungs.
	Population int `json:",omitempty"`
	// Seed is the search's root seed: per-candidate and per-generation
	// seeds mix it with the (generation, index) cell, never with
	// wall-clock or execution order.
	Seed int64
	// YieldTrials, when positive, runs a seeded faults.YieldSweep of
	// that many sampled chips per candidate and records the surviving
	// fraction (required for the "yield" objective).
	YieldTrials int `json:",omitempty"`
	// Model is the Monte Carlo fault model for yield; the zero value
	// gets a small default when YieldTrials > 0.
	Model faults.MonteCarloModel
}

// DefaultNetwork is the workload a spec evaluates when none is named.
const DefaultNetwork = "ResNet-50"

// Default search budget knobs, applied by WithDefaults.
const (
	// DefaultGenerations is the round count when Generations is 0.
	DefaultGenerations = 8
	// DefaultPopulation is the per-round budget when Population is 0.
	DefaultPopulation = 16
)

// maxima bounding user-submitted search specs: the serving tier refuses
// budgets past these instead of grinding for hours.
const (
	maxGenerations = 64
	maxPopulation  = 256
	maxPoints      = 4096
	maxYieldTrials = 1024
	maxAxisValues  = 64
)

// defaultSpace is the Table 4 grid: the paper's swept M and N_RFCU
// ranges, the three wavelength counts, and the reuse ladder around the
// ReFOCUS-FB pick of 15.
func defaultSpace() Space {
	return Space{
		M:       []int{4, 8, 16, 32, 64},
		NRFCU:   []int{4, 8, 12, 16, 20, 24, 28, 32},
		NLambda: []int{1, 2, 4},
		Reuses:  []int{1, 3, 7, 15, 31},
	}
}

// WithDefaults returns the spec with every unset field filled in. Start
// and ID always operate on the defaulted form, so a spec naming only a
// preset and a seed is a complete search description.
func (s Spec) WithDefaults() Spec {
	if s.Network == "" {
		s.Network = DefaultNetwork
	}
	def := defaultSpace()
	if len(s.Space.M) == 0 {
		s.Space.M = def.M
	}
	if len(s.Space.NRFCU) == 0 {
		s.Space.NRFCU = def.NRFCU
	}
	if len(s.Space.NLambda) == 0 {
		s.Space.NLambda = def.NLambda
	}
	if len(s.Space.Reuses) == 0 {
		s.Space.Reuses = def.Reuses
	}
	if base, err := s.ResolveConfig(); err == nil && base.Buffer != arch.Feedback {
		// Reuse count only exists for the feedback buffer: collapse the
		// axis so the identity and the budget reflect the real grid.
		s.Space.Reuses = []int{base.Reuses}
	}
	if len(s.Objectives) == 0 {
		s.Objectives = []Objective{ObjectiveFPS, ObjectiveFPSPerWatt, ObjectiveFPSPerMM2, ObjectivePAP}
		if s.YieldTrials > 0 {
			s.Objectives = append(s.Objectives, ObjectiveYield)
		}
	}
	if s.Strategy == "" {
		s.Strategy = StrategyEvolve
	}
	if s.Generations == 0 {
		s.Generations = DefaultGenerations
	}
	if s.Population == 0 {
		s.Population = DefaultPopulation
	}
	var zeroModel faults.MonteCarloModel
	if s.YieldTrials > 0 && s.Model == zeroModel {
		s.Model = faults.MonteCarloModel{RFCUFailProb: 0.02, WavelengthFailProb: 0.01, BufferLossSigmaDB: 0.5}
	}
	return s
}

// Validate reports specs that cannot run. It resolves the base design
// point and workload eagerly, so a bad preset or network name fails at
// submit time, not generations deep into the search. Call on the
// defaulted form.
func (s Spec) Validate() error {
	if _, err := s.ResolveConfig(); err != nil {
		return err
	}
	if _, err := s.ResolveNetworks(); err != nil {
		return err
	}
	axes := []struct {
		name string
		vals []int
	}{{"M", s.Space.M}, {"NRFCU", s.Space.NRFCU}, {"NLambda", s.Space.NLambda}, {"Reuses", s.Space.Reuses}}
	for _, ax := range axes {
		if len(ax.vals) == 0 {
			return fmt.Errorf("opt: Space.%s is empty", ax.name)
		}
		if len(ax.vals) > maxAxisValues {
			return fmt.Errorf("opt: Space.%s has %d values, max %d", ax.name, len(ax.vals), maxAxisValues)
		}
		seen := make(map[int]bool, len(ax.vals))
		for _, v := range ax.vals {
			// Reuses 0 is legal: it is the collapsed value for
			// non-feedback base configs.
			if v < 0 || (v == 0 && ax.name != "Reuses") {
				return fmt.Errorf("opt: Space.%s value %d, must be positive", ax.name, v)
			}
			if v > 1<<20 {
				return fmt.Errorf("opt: Space.%s value %d is implausibly large", ax.name, v)
			}
			if seen[v] {
				return fmt.Errorf("opt: Space.%s repeats value %d", ax.name, v)
			}
			seen[v] = true
		}
	}
	if len(s.Objectives) == 0 {
		return errors.New("opt: at least one objective is required")
	}
	seenObj := make(map[Objective]bool, len(s.Objectives))
	for _, o := range s.Objectives {
		switch o {
		case ObjectiveFPS, ObjectiveFPSPerWatt, ObjectiveFPSPerMM2, ObjectivePAP:
		case ObjectiveYield:
			if s.YieldTrials <= 0 {
				return errors.New(`opt: objective "yield" requires YieldTrials > 0`)
			}
		default:
			return fmt.Errorf("opt: unknown objective %q", o)
		}
		if seenObj[o] {
			return fmt.Errorf("opt: objective %q repeated", o)
		}
		seenObj[o] = true
	}
	if s.AreaBudgetMM2 < 0 || math.IsNaN(s.AreaBudgetMM2) || math.IsInf(s.AreaBudgetMM2, 0) {
		return fmt.Errorf("opt: AreaBudgetMM2 %g, must be finite and >= 0", s.AreaBudgetMM2)
	}
	if s.PowerBudgetW < 0 || math.IsNaN(s.PowerBudgetW) || math.IsInf(s.PowerBudgetW, 0) {
		return fmt.Errorf("opt: PowerBudgetW %g, must be finite and >= 0", s.PowerBudgetW)
	}
	if _, err := strategyFor(s.Strategy); err != nil {
		return err
	}
	if s.Generations < 1 || s.Generations > maxGenerations {
		return fmt.Errorf("opt: Generations %d outside [1,%d]", s.Generations, maxGenerations)
	}
	if s.Population < 2 || s.Population > maxPopulation {
		return fmt.Errorf("opt: Population %d outside [2,%d]", s.Population, maxPopulation)
	}
	if s.Generations*s.Population > maxPoints {
		return fmt.Errorf("opt: budget %d points (Generations x Population) exceeds %d", s.Generations*s.Population, maxPoints)
	}
	if s.YieldTrials < 0 || s.YieldTrials > maxYieldTrials {
		return fmt.Errorf("opt: YieldTrials %d outside [0,%d]", s.YieldTrials, maxYieldTrials)
	}
	if s.YieldTrials > 0 {
		if err := s.Model.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ResolveConfig turns the spec's base design-point naming into a
// validated arch.SystemConfig, by the preset-or-config rule of
// sim.ResolveDesignPoint that the serving layer also speaks.
func (s Spec) ResolveConfig() (arch.SystemConfig, error) {
	cfg, err := sim.ResolveDesignPoint(s.Preset, s.Config)
	if err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// ResolveNetworks resolves the spec's workload name to the network set
// objectives are measured on.
func (s Spec) ResolveNetworks() ([]nn.Network, error) {
	nets, _, err := s.workload()
	return nets, err
}

// workload resolves the spec's workload name to its networks and their
// canonical hashes, as the registry computed them.
func (s Spec) workload() ([]nn.Network, []string, error) {
	name := s.Network
	if name == "" {
		name = DefaultNetwork
	}
	return sim.ResolveWorkload(name)
}

// searchIdentity is the hashed form of a spec: the base design point and
// workload are replaced by their canonical content hashes, so two specs
// that spell the same base point differently (preset alias vs inline
// config, formatting differences) still share one search — and one
// checkpoint.
type searchIdentity struct {
	Name          string
	ConfigHash    string
	NetworkHashes []string
	Space         Space
	Objectives    []Objective
	AreaBudgetMM2 float64
	PowerBudgetW  float64
	Strategy      string
	Generations   int
	Population    int
	Seed          int64
	YieldTrials   int
	Model         faults.MonteCarloModel
}

// ID returns the search's stable identity: the SHA-256 hex digest of the
// defaulted spec's canonical form. It names the checkpoint file and the
// GET /v1/optimize/{id} handle. Call on the defaulted form.
func (s Spec) ID() (string, error) {
	cfg, err := s.ResolveConfig()
	if err != nil {
		return "", err
	}
	cfgHash, err := arch.ConfigHash(cfg)
	if err != nil {
		return "", err
	}
	_, netHashes, err := s.workload()
	if err != nil {
		return "", err
	}
	idt := searchIdentity{
		Name:          s.Name,
		ConfigHash:    cfgHash,
		NetworkHashes: netHashes,
		Space:         s.Space,
		Objectives:    s.Objectives,
		AreaBudgetMM2: s.AreaBudgetMM2,
		PowerBudgetW:  s.PowerBudgetW,
		Strategy:      s.Strategy,
		Generations:   s.Generations,
		Population:    s.Population,
		Seed:          s.Seed,
		YieldTrials:   s.YieldTrials,
		Model:         s.Model,
	}
	data, err := json.Marshal(idt)
	if err != nil {
		return "", fmt.Errorf("opt: encoding search identity: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Budget is the search's budget bound: generations × population.
func (s Spec) Budget() int { return s.Generations * s.Population }

// CandidateSeed derives the deterministic seed of one (generation,
// index) cell from the search seed with a splitmix-style mix — the same
// construction as robust.TrialSeed. Seeds depend only on the cell
// indices, never on execution order, worker count or resume history,
// which is what makes a killed-and-restarted search's front
// byte-identical to an uninterrupted run's.
func CandidateSeed(seed int64, gen, index int) int64 {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	h ^= uint64(gen+1) * 0xBF58476D1CE4E5B9
	h ^= uint64(index+1) * 0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	return int64(h)
}

// generationSeed seeds one generation's proposal RNG; the out-of-band
// index keeps it distinct from every candidate's own seed.
func generationSeed(seed int64, gen int) int64 {
	return CandidateSeed(seed, gen, 1<<30)
}

// Metrics is the objective-bearing measurement of one candidate: the
// four geomean report metrics, the raw power/area the budget constraints
// bind on, and the yield fraction when the search samples one.
type Metrics struct {
	// FPS, FPSPerWatt, FPSPerMM2 and PAP are geomeans across the spec's
	// networks, straight from the arch evaluator.
	FPS        float64
	FPSPerWatt float64
	FPSPerMM2  float64
	PAP        float64
	// PowerW is mean total power draw in watts and AreaMM2 die area in
	// mm² — the quantities the budget constraints are checked against.
	PowerW  float64
	AreaMM2 float64
	// Yield is the surviving fraction of the seeded Monte Carlo fleet,
	// present only when YieldTrials > 0.
	Yield float64 `json:",omitempty"`
}

// objectiveVector projects m onto the spec's objective axes, in spec
// order. All axes are maximized.
func (s Spec) objectiveVector(m Metrics) []float64 {
	out := make([]float64, len(s.Objectives))
	for i, o := range s.Objectives {
		switch o {
		case ObjectiveFPS:
			out[i] = m.FPS
		case ObjectiveFPSPerWatt:
			out[i] = m.FPSPerWatt
		case ObjectiveFPSPerMM2:
			out[i] = m.FPSPerMM2
		case ObjectivePAP:
			out[i] = m.PAP
		case ObjectiveYield:
			out[i] = m.Yield
		}
	}
	return out
}

// violation measures how far m breaks the budget constraints, as a sum
// of relative overshoots; 0 means feasible. Used to rank infeasible
// candidates among themselves (closer to the budget is better).
func (s Spec) violation(m Metrics) float64 {
	v := 0.0
	if s.AreaBudgetMM2 > 0 && m.AreaMM2 > s.AreaBudgetMM2 {
		v += (m.AreaMM2 - s.AreaBudgetMM2) / s.AreaBudgetMM2
	}
	if s.PowerBudgetW > 0 && m.PowerW > s.PowerBudgetW {
		v += (m.PowerW - s.PowerBudgetW) / s.PowerBudgetW
	}
	return v
}

// feasible reports whether m satisfies every budget constraint.
func (s Spec) feasible(m Metrics) bool { return s.violation(m) == 0 }
