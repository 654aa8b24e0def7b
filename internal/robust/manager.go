package robust

import (
	"context"
	"errors"
	"path/filepath"

	"refocus/internal/job"
)

// Status is a campaign lifecycle state as reported by StatusResponse.
type Status = job.State

// Campaign lifecycle states (see job.State).
const (
	StatusRunning     = job.Running
	StatusDone        = job.Done
	StatusFailed      = job.Failed
	StatusInterrupted = job.Interrupted
)

// StatusResponse is the wire form of a campaign's state, served by
// GET /v1/robustness/{id} and embedded in the final stream line.
type StatusResponse struct {
	// ID is the campaign identity; Name the spec's optional label.
	ID   string `json:",omitempty"`
	Name string `json:",omitempty"`
	// Status is the lifecycle state.
	Status Status
	// TotalTrials is the campaign budget (severities × trials);
	// CompletedTrials how many are finished, split into ExecutedTrials
	// (computed by a live process) and ResumedTrials (recovered from the
	// checkpoint). FailedChips counts hard manufacturing failures among
	// the completed trials.
	TotalTrials     int
	CompletedTrials int
	ExecutedTrials  int
	ResumedTrials   int
	FailedChips     int
	// NominalFPS and CleanAccuracy are the campaign baselines, present
	// once known.
	NominalFPS    float64 `json:",omitempty"`
	CleanAccuracy float64 `json:",omitempty"`
	// Frontier is the accuracy/yield/throughput frontier: final on done
	// campaigns, incumbent (over the trials completed so far) while
	// running.
	Frontier []FrontierPoint `json:",omitempty"`
	// Error explains a failed campaign.
	Error string `json:",omitempty"`
}

// TrialResult is one completed Monte Carlo trial — the checkpoint's unit
// of durability and the frontier's raw material. Every field derives
// deterministically from (Spec, Severity, Trial), so a resumed campaign
// reproduces missing trials bit-for-bit.
type TrialResult struct {
	// Severity indexes Spec.Severities; Trial indexes [0, Spec.Trials).
	Severity int
	Trial    int
	// Seed is job.CellSeed(spec.Seed, Severity, Trial), recorded so a trial
	// can be replayed standalone.
	Seed int64
	// Failed marks a hard chip failure (faults.ErrNothingRuns): no
	// compute path survives, so the trial counts against yield and is
	// excluded from the throughput and accuracy distributions.
	Failed bool `json:",omitempty"`
	// FPS and Energy are the degraded machine's geomean throughput and
	// energy per inference across the spec's networks (zero when Failed).
	FPS    float64 `json:",omitempty"`
	Energy float64 `json:",omitempty"`
	// HealthyRFCUs, EffectiveLambda and EffectiveReuses summarize the
	// fault remapping (the Degradation record's load-bearing fields).
	HealthyRFCUs    int `json:",omitempty"`
	EffectiveLambda int `json:",omitempty"`
	EffectiveReuses int `json:",omitempty"`
	// Accuracy is the clean-trained reference net's accuracy on this
	// trial's device datapath (zero when Failed).
	Accuracy float64 `json:",omitempty"`
	// RetrainedAccuracy is the accuracy after retraining through the
	// device model; present only on Retrain campaigns.
	RetrainedAccuracy *float64 `json:",omitempty"`
}

// Cell is the trial's (severity, trial) address.
func (t TrialResult) Cell() job.Cell { return job.Cell{t.Severity, t.Trial} }

// Checkpoint is the durable campaign state: the job header with every
// completed trial, then — once the campaign finishes — its baselines and
// final frontier. It is written atomically after every completed trial
// (see job.Cells).
type Checkpoint struct {
	job.Checkpoint[Spec, TrialResult]
	// NominalFPS and CleanAccuracy are the campaign-level baselines,
	// present once the campaign finished.
	NominalFPS    float64 `json:",omitempty"`
	CleanAccuracy float64 `json:",omitempty"`
	// Frontier is the final per-severity frontier; non-nil only when the
	// campaign ran to completion (its presence is how a status probe
	// tells "done" from "interrupted").
	Frontier []FrontierPoint `json:",omitempty"`
}

// CheckpointPath names a campaign's checkpoint file inside dir.
func CheckpointPath(dir, id string) string {
	return filepath.Join(dir, "campaign-"+id+".json")
}

// LoadCheckpoint reads and validates a campaign checkpoint (job.Load).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	cp := new(Checkpoint)
	if err := job.Load[Spec, TrialResult](path, cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Dir is the checkpoint directory; "" runs campaigns without
	// durability (they cannot survive a restart).
	Dir string
	// Eval evaluates trials (required).
	Eval TrialEval
	// Parallelism bounds concurrent trials per campaign; <1 defaults
	// to 2.
	Parallelism int
	// MaxActive bounds concurrently running campaigns; <1 defaults to 4.
	MaxActive int
	// Hooks observes campaign and trial events (metrics counters).
	Hooks Hooks
}

// Manager owns the campaign jobs of a serving process; Job is one live
// campaign.
type (
	Manager = job.Manager[Spec, TrialResult, *Result, StatusResponse]
	Job     = job.Job[Spec, TrialResult, *Result, StatusResponse]
)

// NewManager builds a Manager, creating the checkpoint directory if
// configured.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Eval == nil {
		return nil, errors.New("robust: ManagerConfig.Eval is required")
	}
	if cfg.MaxActive < 1 {
		cfg.MaxActive = 4
	}
	run := func(ctx context.Context, j *Job) (*Result, error) {
		r := &Runner{Spec: j.Spec(), ID: j.ID(), Dir: cfg.Dir, Eval: cfg.Eval, Parallelism: cfg.Parallelism,
			Hooks: j.Hooks(), OnUpdate: func(u Update) { j.Publish(u) }}
		return r.Run(ctx)
	}
	return job.NewManager(job.Kind[Spec, TrialResult, *Result, StatusResponse]{Run: run, Status: status, Load: load},
		cfg.Dir, cfg.MaxActive, cfg.Hooks)
}

// load reads a campaign's checkpoint for a status probe.
func load(dir, id string) (job.Progress[Spec, TrialResult, *Result], error) {
	cp, err := LoadCheckpoint(CheckpointPath(dir, id))
	if err != nil {
		return job.Progress[Spec, TrialResult, *Result]{}, err
	}
	p := job.Progress[Spec, TrialResult, *Result]{ID: cp.ID, Spec: cp.Spec, State: StatusInterrupted,
		Done: cp.Done, Resumed: len(cp.Done)}
	if cp.Frontier != nil {
		p.State = StatusDone
		p.Result = &Result{NominalFPS: cp.NominalFPS, CleanAccuracy: cp.CleanAccuracy, Frontier: cp.Frontier}
	}
	return p, nil
}

// status renders a campaign's progress. A running campaign's frontier
// covers the severities with at least one completed trial, resumed or
// executed.
func status(p job.Progress[Spec, TrialResult, *Result]) StatusResponse {
	st := StatusResponse{
		ID:              p.ID,
		Name:            p.Spec.Name,
		Status:          p.State,
		TotalTrials:     p.Spec.Budget(),
		CompletedTrials: len(p.Done),
		ExecutedTrials:  p.Executed,
		ResumedTrials:   p.Resumed,
		Error:           p.Error,
	}
	bySeverity := make([][]TrialResult, len(p.Spec.Severities))
	for _, t := range p.Done {
		if t.Failed {
			st.FailedChips++
		}
		if t.Severity >= 0 && t.Severity < len(bySeverity) {
			bySeverity[t.Severity] = append(bySeverity[t.Severity], t)
		}
	}
	switch p.State {
	case StatusDone:
		st.Frontier = p.Result.Frontier
		st.NominalFPS = p.Result.NominalFPS
		st.CleanAccuracy = p.Result.CleanAccuracy
	case StatusRunning:
		for s, ts := range bySeverity {
			if len(ts) > 0 {
				st.Frontier = append(st.Frontier, frontierPoint(p.Spec, s, ts))
			}
		}
	}
	return st
}
