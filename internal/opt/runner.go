package opt

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/job"
	"refocus/internal/nn"
)

// PointMetrics is what a PointEval measures for one design point: the
// four objective geomeans plus the raw power and area the budget
// constraints bind on. Yield is sampled separately by the runner
// (faults.YieldSweep with the candidate's seed), never by the eval.
type PointMetrics struct {
	// FPS, FPSPerWatt, FPSPerMM2 and PAP are geomeans across the spec's
	// networks.
	FPS        float64
	FPSPerWatt float64
	FPSPerMM2  float64
	PAP        float64
	// PowerW is mean total power in watts; AreaMM2 die area in mm².
	PowerW  float64
	AreaMM2 float64
}

// PointEval evaluates one materialized candidate design point. The
// serve tier implements it on top of its cached, admission-controlled
// worker pool; the cluster tier dispatches it across shards by routeKey
// (the candidate's canonical config hash, so a repeated point always
// lands on the shard that already cached it); DirectEval evaluates
// in-process.
type PointEval func(ctx context.Context, spec Spec, cfg arch.SystemConfig, routeKey string) (PointMetrics, error)

// PointMetricsFromReports aggregates per-network reports the way every
// eval tier must: geomean objectives, mean power, first-report area
// (area is a property of the design point, identical across networks).
func PointMetricsFromReports(reports []arch.Report) PointMetrics {
	if len(reports) == 0 {
		return PointMetrics{}
	}
	power := 0.0
	for _, r := range reports {
		power += r.Power.Total()
	}
	return PointMetrics{
		FPS:        arch.GeoMean(reports, arch.MetricFPS),
		FPSPerWatt: arch.GeoMean(reports, arch.MetricFPSPerWatt),
		FPSPerMM2:  arch.GeoMean(reports, arch.MetricFPSPerMM2),
		PAP:        arch.GeoMean(reports, arch.MetricPAP),
		PowerW:     power / float64(len(reports)),
		AreaMM2:    reports[0].Area.Total() / 1e-6,
	}
}

// DirectEval returns a PointEval that evaluates in-process with no
// cache or admission control — unit tests, offline tools and any caller
// that does not sit behind the serving tier.
func DirectEval() PointEval {
	return func(ctx context.Context, spec Spec, cfg arch.SystemConfig, _ string) (PointMetrics, error) {
		nets, err := spec.ResolveNetworks()
		if err != nil {
			return PointMetrics{}, err
		}
		reports, err := arch.EvaluateAllCtx(ctx, cfg, nets)
		if err != nil {
			return PointMetrics{}, err
		}
		return PointMetricsFromReports(reports), nil
	}
}

// FrontPoint is one member of the Pareto front: a feasible design point
// no other evaluated feasible point dominates.
type FrontPoint struct {
	// Gen and Index address the cell that first produced this point.
	Gen   int
	Index int
	// Config names the design point; ConfigHash is its canonical
	// content hash (the result-cache key its evaluation rode).
	Config     string
	ConfigHash string `json:",omitempty"`
	// M, NRFCU, NLambda and Reuses are the design point's searched
	// dimensions.
	M       int
	NRFCU   int
	NLambda int
	Reuses  int
	// Metrics are the point's measured objectives.
	Metrics Metrics
}

// frontPoint projects an evaluated candidate onto the front's wire form.
func frontPoint(r CandidateResult) FrontPoint {
	return FrontPoint{
		Gen:        r.Gen,
		Index:      r.Index,
		Config:     r.Config,
		ConfigHash: r.ConfigHash,
		M:          r.M,
		NRFCU:      r.NRFCU,
		NLambda:    r.NLambda,
		Reuses:     r.Reuses,
		Metrics:    r.Metrics,
	}
}

// computeFront builds the Pareto front from the evaluated candidates in
// cell order: valid feasible records, minus dominated points and exact
// objective duplicates. It depends only on the record values, never on
// the order they were computed or which process computed them — the
// byte-identity guarantee after a resume. The result is non-nil even
// when empty (a finished search with no feasible point still finished).
func computeFront(spec Spec, done []CandidateResult) []FrontPoint {
	var recs []CandidateResult
	for _, r := range done {
		if !r.Invalid && r.Feasible {
			recs = append(recs, r)
		}
	}
	vecs := make([][]float64, len(recs))
	for i, r := range recs {
		vecs[i] = spec.objectiveVector(r.Metrics)
	}
	front := make([]FrontPoint, 0, len(recs))
	for _, i := range ParetoFront(vecs) {
		front = append(front, frontPoint(recs[i]))
	}
	return front
}

// Update is one line of a search's NDJSON incumbent stream.
type Update struct {
	// Type is "point" while the search runs, then a final "done" or
	// "failed" line.
	Type string
	// Completed counts evaluated candidates (resumed included) out of
	// the Total budget bound.
	Completed int
	Total     int
	// Point is the just-evaluated candidate (absent on the
	// resume-progress and final lines).
	Point *CandidateResult `json:",omitempty"`
	// Status carries the full final state on the last line.
	Status *StatusResponse `json:",omitempty"`
}

// Hooks observes search events, letting the serving tier count metrics
// without this package importing it: Started and Finished per search,
// Executed and Resumed per candidate (see job.Hooks).
type Hooks = job.Hooks[CandidateResult]

// Result is a completed search.
type Result struct {
	// ID is the search identity; Spec the defaulted spec it ran.
	ID   string
	Spec Spec
	// Front is the final Pareto front, in canonical (Gen, Index) order.
	Front []FrontPoint
	// Executed counts candidates evaluated in this process, Resumed the
	// ones recovered from the checkpoint; their sum is Completed — a
	// resumed search never recomputes (duplicates) a checkpointed
	// candidate. Completed can fall below the Generations x Population
	// budget bound for strategies that deliberately spend less
	// (successive halving's shrinking rungs).
	Executed  int
	Resumed   int
	Completed int
	// Invalid counts candidates the architecture model rejected;
	// Infeasible the evaluated ones that broke the area/power budgets.
	Invalid    int
	Infeasible int
}

// Runner executes one search: sequential strategy-proposed generations
// evaluated with bounded parallelism, checkpointing after every
// candidate, and per-candidate seeds independent of execution order.
// Fields are read-only once Run starts.
type Runner struct {
	// Spec is the defaulted, validated search spec; ID its identity.
	Spec Spec
	ID   string
	// Dir is the checkpoint directory; "" disables durability.
	Dir string
	// Eval evaluates each candidate design point (required).
	Eval PointEval
	// Parallelism bounds concurrent evaluations; <1 defaults to 2.
	Parallelism int
	// Hooks observes point completion/resume events.
	Hooks Hooks
	// OnUpdate receives incumbent updates as candidates finish (may be
	// nil). Called without internal locks held, possibly concurrently.
	OnUpdate func(Update)
}

// update emits u when a sink is attached.
func (r *Runner) update(u Update) {
	if r.OnUpdate != nil {
		r.OnUpdate(u)
	}
}

// Run executes the search until done, canceled, or the first hard
// error. It loads any existing checkpoint first, replays each
// generation's proposals deterministically, and evaluates only the
// missing cells; the returned front is byte-for-byte the one an
// uninterrupted run with the same spec produces.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	if r.Eval == nil {
		return nil, errors.New("opt: Runner.Eval is required")
	}
	spec := r.Spec
	g, err := newGrid(spec)
	if err != nil {
		return nil, err
	}
	strat, err := strategyFor(spec.Strategy)
	if err != nil {
		return nil, err
	}
	var nets []nn.Network
	if spec.YieldTrials > 0 {
		if nets, err = spec.ResolveNetworks(); err != nil {
			return nil, err
		}
	}
	cells := &job.Cells[Spec, CandidateResult]{ID: r.ID, Spec: spec, Hooks: r.Hooks,
		New: func() job.File[Spec, CandidateResult] { return new(Checkpoint) }}
	if r.Dir != "" {
		cells.Path = CheckpointPath(r.Dir, r.ID)
	}
	err = cells.Resume(func(c CandidateResult) bool {
		return c.Gen >= 0 && c.Gen < spec.Generations && c.Index >= 0 && c.Index < spec.Population
	})
	if err != nil {
		return nil, err
	}
	total := spec.Budget()
	if n := cells.Resumed(); n > 0 {
		r.update(Update{Type: "point", Completed: n, Total: total})
	}

	for gen := 0; gen < spec.Generations; gen++ {
		cands := r.proposals(strat, g, cells.Done(), gen)
		var pending []job.Cell
		for i := range cands {
			if _, ok := cells.Done()[job.Cell{gen, i}]; !ok {
				pending = append(pending, job.Cell{gen, i})
			}
		}
		if len(pending) == 0 {
			continue
		}
		err := cells.Run(ctx, r.Parallelism, pending,
			func(ctx context.Context, c job.Cell) (CandidateResult, error) {
				return r.runPoint(ctx, g, nets, c[0], c[1], cands[c[1]])
			},
			func(c CandidateResult, completed int) {
				r.update(Update{Type: "point", Completed: completed, Total: total, Point: &c})
			})
		if err != nil {
			return nil, err
		}
	}

	done := job.Sorted(cells.Done())
	res := &Result{
		ID:        r.ID,
		Spec:      spec,
		Front:     computeFront(spec, done),
		Executed:  cells.Executed(),
		Resumed:   cells.Resumed(),
		Completed: len(done),
	}
	for _, c := range done {
		switch {
		case c.Invalid:
			res.Invalid++
		case !c.Feasible:
			res.Infeasible++
		}
	}
	if err := cells.Commit(&Checkpoint{Front: res.Front}); err != nil {
		return nil, err
	}
	return res, nil
}

// proposals replays generation gen's candidate list: a deterministic
// function of (spec, strategy, history), which is what lets a resumed
// search re-derive the exact schedule its checkpointed cells belong to.
func (r *Runner) proposals(strat Strategy, g *grid, done map[job.Cell]CandidateResult, gen int) []Candidate {
	var hist []CandidateResult
	for _, c := range job.Sorted(done) {
		if c.Gen < gen {
			hist = append(hist, c)
		}
	}
	pc := ProposalContext{
		Spec:    r.Spec,
		Dims:    g.dims(),
		Gen:     gen,
		Budget:  r.Spec.Population,
		History: hist,
		grid:    g,
	}
	rng := rand.New(rand.NewSource(generationSeed(r.Spec.Seed, gen)))
	cands := strat.Propose(rng, pc)
	if len(cands) > r.Spec.Population {
		cands = cands[:r.Spec.Population]
	}
	for i := range cands {
		cands[i] = g.clamp(cands[i])
	}
	return cands
}

// runPoint evaluates one (generation, index) cell: materialize the
// candidate (an architecturally invalid point is recorded, not fatal —
// the strategy learns the hole in the space), measure its objectives via
// Eval, sample yield when the spec asks for it, and check feasibility.
func (r *Runner) runPoint(ctx context.Context, g *grid, nets []nn.Network, gen, idx int, cand Candidate) (CandidateResult, error) {
	if err := ctx.Err(); err != nil {
		return CandidateResult{}, err
	}
	m, n, l, reuses := g.values(cand)
	c := CandidateResult{
		Gen:       gen,
		Index:     idx,
		Candidate: cand,
		Seed:      CandidateSeed(r.Spec.Seed, gen, idx),
		M:         m,
		NRFCU:     n,
		NLambda:   l,
		Reuses:    reuses,
	}
	cfg, err := g.config(cand)
	if err != nil {
		c.Invalid = true
		c.Note = err.Error()
		return c, nil
	}
	c.Config = cfg.Name
	hash, err := arch.ConfigHash(cfg)
	if err != nil {
		return CandidateResult{}, fmt.Errorf("opt: cell (%d,%d): %w", gen, idx, err)
	}
	c.ConfigHash = hash

	pm, err := r.Eval(ctx, r.Spec, cfg, hash)
	if err != nil {
		return CandidateResult{}, fmt.Errorf("opt: cell (%d,%d) %s: %w", gen, idx, cfg.Name, err)
	}
	c.Metrics = Metrics{
		FPS:        pm.FPS,
		FPSPerWatt: pm.FPSPerWatt,
		FPSPerMM2:  pm.FPSPerMM2,
		PAP:        pm.PAP,
		PowerW:     pm.PowerW,
		AreaMM2:    pm.AreaMM2,
	}
	if r.Spec.YieldTrials > 0 {
		yr, err := faults.YieldSweep(ctx, cfg, nets, r.Spec.Model, r.Spec.YieldTrials, c.Seed)
		if err != nil {
			return CandidateResult{}, fmt.Errorf("opt: cell (%d,%d) yield: %w", gen, idx, err)
		}
		c.Metrics.Yield = float64(yr.Trials-yr.Failed) / float64(yr.Trials)
	}
	c.Feasible = r.Spec.feasible(c.Metrics)
	return c, nil
}
