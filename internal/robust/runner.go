package robust

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/job"
)

// TrialMetrics is the throughput side of one surviving trial: geomean
// FPS and energy per inference across the spec's networks, produced by
// whatever TrialEval backs the campaign.
type TrialMetrics struct {
	// FPS is the degraded machine's geomean frames/s; Energy its geomean
	// energy per inference.
	FPS    float64
	Energy float64
}

// TrialEval evaluates the degraded design point of one trial. The serve
// tier implements it on top of its cached, admission-controlled worker
// pool; the cluster tier dispatches it across shards by routeKey (the
// campaign ID + trial seed, so a fixed trial always lands on the same
// shard and rides the ring's dead-shard failover); DirectEval evaluates
// in-process. A zero fault set asks for the nominal (healthy) machine.
type TrialEval func(ctx context.Context, spec Spec, fs faults.FaultSet, routeKey string) (TrialMetrics, error)

// DirectEval returns a TrialEval that evaluates in-process with no
// cache or admission control — unit tests, offline tools and any caller
// that does not sit behind the serving tier.
func DirectEval() TrialEval {
	return func(ctx context.Context, spec Spec, fs faults.FaultSet, _ string) (TrialMetrics, error) {
		t, err := spec.target()
		if err != nil {
			return TrialMetrics{}, err
		}
		reports, _, err := faults.EvaluateAllCtx(ctx, t.Config, &fs, t.Clones())
		if err != nil {
			return TrialMetrics{}, err
		}
		return TrialMetricsFromReports(reports), nil
	}
}

// TrialMetricsFromReports aggregates per-network reports the way every
// eval tier must: geomean throughput and energy per inference.
func TrialMetricsFromReports(reports []arch.Report) TrialMetrics {
	return TrialMetrics{
		FPS:    arch.GeoMean(reports, arch.MetricFPS),
		Energy: arch.GeoMean(reports, faults.MetricEnergy),
	}
}

// FrontierPoint is one severity level of the accuracy/yield/throughput
// frontier: how a fleet of chips manufactured at that fault severity
// performs. While a campaign runs, incumbent points cover the trials
// completed so far; the final frontier covers all of them.
type FrontierPoint struct {
	// Severity is the fault-model multiplier; SeverityIndex its position
	// in the spec's grid.
	Severity      float64
	SeverityIndex int
	// Trials counts completed trials at this severity so far; Failed the
	// hard chip failures among them (no compute path). Yield is the
	// surviving fraction.
	Trials int
	Failed int
	Yield  float64
	// FPS and Accuracy summarize the survivors (zero-valued when none
	// survive — a dead fleet has no throughput, not zero throughput).
	FPS      faults.Distribution
	Accuracy faults.Distribution
	// Retrained is the post-retraining accuracy distribution, present on
	// Retrain campaigns with at least one survivor.
	Retrained *faults.Distribution `json:",omitempty"`
	// FleetFPS is yield-weighted mean throughput — the frontier's
	// throughput axis: what a wafer of these chips delivers per die sold.
	FleetFPS float64
}

// Update is one line of a campaign's NDJSON incumbent stream.
type Update struct {
	// Type is "trial" while the campaign runs, then a final "done" or
	// "failed" line.
	Type string
	// Completed counts finished trials (resumed included) out of Total.
	Completed int
	Total     int
	// Incumbent is the refreshed frontier point for the severity the
	// just-finished trial belongs to (absent on the resume-progress and
	// final lines).
	Incumbent *FrontierPoint `json:",omitempty"`
	// Status carries the full final state on the last line.
	Status *StatusResponse `json:",omitempty"`
}

// Hooks observes campaign events, letting the serving tier count
// metrics without this package importing it: Started and Finished per
// campaign, Executed and Resumed per trial (see job.Hooks).
type Hooks = job.Hooks[TrialResult]

// Result is a completed campaign.
type Result struct {
	// ID is the campaign identity; Spec the defaulted spec it ran.
	ID   string
	Spec Spec
	// NominalFPS is the healthy design point's geomean throughput;
	// CleanAccuracy the reference net's accuracy on the clean digital
	// datapath — the two baselines the frontier degrades from.
	NominalFPS    float64
	CleanAccuracy float64
	// Frontier is the final per-severity frontier, in severity order.
	Frontier []FrontierPoint
	// Executed counts trials computed in this process, Resumed the ones
	// recovered from the checkpoint, FailedChips the hard failures among
	// all of them. Executed+Resumed always equals the trial budget — a
	// resumed campaign never recomputes (duplicates) a checkpointed
	// trial.
	Executed    int
	Resumed     int
	FailedChips int
}

// Runner executes one campaign: Monte Carlo trials over the severity
// grid with bounded parallelism, checkpointing after every trial, and
// per-trial seeds independent of execution order. Fields are read-only
// once Run starts.
type Runner struct {
	// Spec is the defaulted, validated campaign spec; ID its identity.
	Spec Spec
	ID   string
	// Dir is the checkpoint directory; "" disables durability.
	Dir string
	// Eval evaluates each trial's degraded throughput (required).
	Eval TrialEval
	// Parallelism bounds concurrent trials; <1 defaults to 2.
	Parallelism int
	// Hooks observes trial completion/resume events.
	Hooks Hooks
	// OnUpdate receives incumbent updates as trials finish (may be nil).
	// Called without internal locks held, possibly concurrently.
	OnUpdate func(Update)
}

// update emits u when a sink is attached.
func (r *Runner) update(u Update) {
	if r.OnUpdate != nil {
		r.OnUpdate(u)
	}
}

// Run executes the campaign until done, canceled, or the first hard
// error. It loads any existing checkpoint first and computes only the
// missing trials; the returned frontier is byte-for-byte the one an
// uninterrupted run with the same spec produces.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	if r.Eval == nil {
		return nil, errors.New("robust: Runner.Eval is required")
	}
	spec := r.Spec
	t, err := spec.target()
	if err != nil {
		return nil, err
	}
	cells := &job.Cells[Spec, TrialResult]{ID: r.ID, Spec: spec, Hooks: r.Hooks,
		New: func() job.File[Spec, TrialResult] { return new(Checkpoint) }}
	if r.Dir != "" {
		cells.Path = CheckpointPath(r.Dir, r.ID)
	}
	err = cells.Resume(func(t TrialResult) bool {
		return t.Severity >= 0 && t.Severity < len(spec.Severities) && t.Trial >= 0 && t.Trial < spec.Trials
	})
	if err != nil {
		return nil, err
	}

	// Baselines: the clean reference net (trains once per campaign) and
	// the healthy design point's throughput.
	har := newHarness(spec)
	nominal, err := r.Eval(ctx, spec, faults.FaultSet{}, r.ID+"|nominal")
	if err != nil {
		return nil, fmt.Errorf("robust: nominal evaluation: %w", err)
	}
	total := spec.Budget()
	if n := cells.Resumed(); n > 0 {
		r.update(Update{Type: "trial", Completed: n, Total: total})
	}

	var pending []job.Cell
	for s := range spec.Severities {
		for t := 0; t < spec.Trials; t++ {
			if _, ok := cells.Done()[job.Cell{s, t}]; !ok {
				pending = append(pending, job.Cell{s, t})
			}
		}
	}
	err = cells.Run(ctx, r.Parallelism, pending,
		func(ctx context.Context, c job.Cell) (TrialResult, error) {
			return r.runTrial(ctx, t.Config, har, c[0], c[1])
		},
		func(t TrialResult, completed int) {
			point := frontierPoint(spec, t.Severity, cells.Row(t.Severity, spec.Trials))
			r.update(Update{Type: "trial", Completed: completed, Total: total, Incumbent: &point})
		})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:            r.ID,
		Spec:          spec,
		NominalFPS:    nominal.FPS,
		CleanAccuracy: har.cleanAccuracy,
		Frontier:      make([]FrontierPoint, len(spec.Severities)),
		Executed:      cells.Executed(),
		Resumed:       cells.Resumed(),
	}
	for s := range spec.Severities {
		res.Frontier[s] = frontierPoint(spec, s, cells.Row(s, spec.Trials))
	}
	for _, t := range cells.Done() {
		if t.Failed {
			res.FailedChips++
		}
	}
	cp := &Checkpoint{NominalFPS: res.NominalFPS, CleanAccuracy: res.CleanAccuracy, Frontier: res.Frontier}
	if err := cells.Commit(cp); err != nil {
		return nil, err
	}
	return res, nil
}

// runTrial computes one (severity, trial) cell: sample faults from the
// severity-scaled model, degrade locally (a chip with no compute path is
// a yield loss, never an evaluation), measure degraded throughput via
// Eval, and evaluate the reference net on the trial's device.
func (r *Runner) runTrial(ctx context.Context, cfg arch.SystemConfig, har *harness, sev, trial int) (TrialResult, error) {
	if err := ctx.Err(); err != nil {
		return TrialResult{}, err
	}
	seed := job.CellSeed(r.Spec.Seed, sev, trial)
	severity := r.Spec.Severities[sev]
	rng := rand.New(rand.NewSource(seed))
	fs := r.Spec.ScaledModel(severity).Sample(rng, cfg)
	fs.Name = fmt.Sprintf("sev%d-trial%d", sev, trial)
	t := TrialResult{Severity: sev, Trial: trial, Seed: seed}

	_, deg, err := fs.Degrade(cfg)
	if err != nil {
		if errors.Is(err, faults.ErrNothingRuns) {
			t.Failed = true
			return t, nil
		}
		return TrialResult{}, fmt.Errorf("robust: trial (%d,%d): %w", sev, trial, err)
	}
	t.HealthyRFCUs = deg.HealthyRFCUs
	t.EffectiveLambda = deg.EffectiveLambda
	t.EffectiveReuses = deg.EffectiveReuses

	m, err := r.Eval(ctx, r.Spec, fs, fmt.Sprintf("%s|%016x", r.ID, uint64(seed)))
	if err != nil {
		return TrialResult{}, fmt.Errorf("robust: trial (%d,%d): %w", sev, trial, err)
	}
	t.FPS, t.Energy = m.FPS, m.Energy

	t.Accuracy = har.accuracy(seed, severity)
	if r.Spec.Retrain {
		acc := har.retrain(seed, severity)
		t.RetrainedAccuracy = &acc
	}
	return t, nil
}

// frontierPoint summarizes one severity level's trials.
func frontierPoint(spec Spec, sev int, ts []TrialResult) FrontierPoint {
	p := FrontierPoint{Severity: spec.Severities[sev], SeverityIndex: sev, Trials: len(ts)}
	var fps, acc, retrained []float64
	for _, t := range ts {
		if t.Failed {
			p.Failed++
			continue
		}
		fps = append(fps, t.FPS)
		acc = append(acc, t.Accuracy)
		if t.RetrainedAccuracy != nil {
			retrained = append(retrained, *t.RetrainedAccuracy)
		}
	}
	if p.Trials > 0 {
		p.Yield = float64(p.Trials-p.Failed) / float64(p.Trials)
	}
	if len(fps) > 0 {
		p.FPS = faults.NewDistribution(fps)
		p.Accuracy = faults.NewDistribution(acc)
		p.FleetFPS = p.Yield * p.FPS.Mean
	}
	if len(retrained) > 0 {
		d := faults.NewDistribution(retrained)
		p.Retrained = &d
	}
	return p
}
