package opt

import (
	"context"
	"errors"
	"path/filepath"

	"refocus/internal/job"
)

// Status is a search lifecycle state as reported by StatusResponse.
type Status = job.State

// Search lifecycle states (see job.State).
const (
	StatusRunning     = job.Running
	StatusDone        = job.Done
	StatusFailed      = job.Failed
	StatusInterrupted = job.Interrupted
)

// StatusResponse is the wire form of a search's state, served by
// GET /v1/optimize/{id} and embedded in the final stream line.
type StatusResponse struct {
	// ID is the search identity; Name the spec's optional label.
	ID   string `json:",omitempty"`
	Name string `json:",omitempty"`
	// Strategy is the spec's search strategy.
	Strategy string `json:",omitempty"`
	// Status is the lifecycle state.
	Status Status
	// TotalPoints is the budget bound (generations × population);
	// CompletedPoints how many candidates are evaluated — below the
	// bound for strategies that deliberately spend less (successive
	// halving) — split into ExecutedPoints (computed by a live process)
	// and ResumedPoints (recovered from the checkpoint).
	TotalPoints     int
	CompletedPoints int
	ExecutedPoints  int
	ResumedPoints   int
	// InvalidPoints counts candidates the architecture model rejected;
	// InfeasiblePoints the evaluated ones that broke the budgets.
	InvalidPoints    int
	InfeasiblePoints int
	// Front is the Pareto front: final on done searches, incumbent
	// (over the candidates evaluated so far) while running.
	Front []FrontPoint `json:",omitempty"`
	// Error explains a failed search.
	Error string `json:",omitempty"`
}

// CandidateResult is one evaluated design point — the checkpoint's unit
// of durability and the front's raw material. Every field derives
// deterministically from (Spec, Gen, Index), so a resumed search
// reproduces missing candidates bit-for-bit.
type CandidateResult struct {
	// Gen and Index address the candidate's cell in the search schedule:
	// Gen is the proposal round, Index the slot within it.
	Gen   int
	Index int
	// Candidate is the proposed point as axis indices into the space.
	Candidate Candidate
	// Seed is job.CellSeed(spec.Seed, Gen, Index), driving the
	// candidate's yield sweep when the search samples one.
	Seed int64
	// M, NRFCU, NLambda and Reuses are the resolved axis values.
	M       int
	NRFCU   int
	NLambda int
	Reuses  int
	// Config names the materialized design point and ConfigHash is its
	// canonical content hash — the route/cache key its evaluation rode.
	Config     string `json:",omitempty"`
	ConfigHash string `json:",omitempty"`
	// Invalid marks a point the architecture model rejects (Note says
	// why); it is recorded so the search never retries it, but carries
	// no metrics and can never enter the front.
	Invalid bool   `json:",omitempty"`
	Note    string `json:",omitempty"`
	// Feasible reports whether the point satisfies the spec's area and
	// power budgets; only feasible points enter the front.
	Feasible bool `json:",omitempty"`
	// Metrics are the candidate's measured objectives.
	Metrics Metrics
}

// Cell is the candidate's (generation, index) address.
func (c CandidateResult) Cell() job.Cell { return job.Cell{c.Gen, c.Index} }

// Checkpoint is the durable search state: the job header with every
// evaluated candidate, then — once the search finishes — the final
// front. It is written atomically after every evaluated candidate (see
// job.Cells).
type Checkpoint struct {
	job.Checkpoint[Spec, CandidateResult]
	// Front is the final Pareto front; non-nil only when the search ran
	// to completion (its presence is how a status probe tells "done"
	// from "interrupted"). Deliberately not omitempty: a finished search
	// whose every point broke the budgets has an empty-but-present
	// front, which must still read back as done.
	Front []FrontPoint
}

// CheckpointPath names a search's checkpoint file inside dir.
func CheckpointPath(dir, id string) string {
	return filepath.Join(dir, "search-"+id+".json")
}

// LoadCheckpoint reads and validates a search checkpoint (job.Load).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	cp := new(Checkpoint)
	if err := job.Load[Spec, CandidateResult](path, cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Dir is the checkpoint directory; "" runs searches without
	// durability (they cannot survive a restart).
	Dir string
	// Eval evaluates candidate design points (required).
	Eval PointEval
	// Parallelism bounds concurrent evaluations per search; <1 defaults
	// to 2.
	Parallelism int
	// MaxActive bounds concurrently running searches; <1 defaults to 2.
	MaxActive int
	// Hooks observes search and point events (metrics counters).
	Hooks Hooks
}

// Manager owns the search jobs of a serving process; Job is one live
// search.
type (
	Manager = job.Manager[Spec, CandidateResult, *Result, StatusResponse]
	Job     = job.Job[Spec, CandidateResult, *Result, StatusResponse]
)

// NewManager builds a Manager, creating the checkpoint directory if
// configured.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Eval == nil {
		return nil, errors.New("opt: ManagerConfig.Eval is required")
	}
	if cfg.MaxActive < 1 {
		cfg.MaxActive = 2
	}
	run := func(ctx context.Context, j *Job) (*Result, error) {
		r := &Runner{Spec: j.Spec(), ID: j.ID(), Dir: cfg.Dir, Eval: cfg.Eval, Parallelism: cfg.Parallelism,
			Hooks: j.Hooks(), OnUpdate: func(u Update) { j.Publish(u) }}
		return r.Run(ctx)
	}
	return job.NewManager(job.Kind[Spec, CandidateResult, *Result, StatusResponse]{Run: run, Status: status, Load: load},
		cfg.Dir, cfg.MaxActive, cfg.Hooks)
}

// load reads a search's checkpoint for a status probe.
func load(dir, id string) (job.Progress[Spec, CandidateResult, *Result], error) {
	cp, err := LoadCheckpoint(CheckpointPath(dir, id))
	if err != nil {
		return job.Progress[Spec, CandidateResult, *Result]{}, err
	}
	p := job.Progress[Spec, CandidateResult, *Result]{ID: cp.ID, Spec: cp.Spec, State: StatusInterrupted,
		Done: cp.Done, Resumed: len(cp.Done)}
	if cp.Front != nil {
		p.State, p.Result = StatusDone, &Result{Front: cp.Front}
	}
	return p, nil
}

// status renders a search's progress. A running search's front is the
// incumbent over every candidate evaluated so far.
func status(p job.Progress[Spec, CandidateResult, *Result]) StatusResponse {
	st := StatusResponse{
		ID:              p.ID,
		Name:            p.Spec.Name,
		Strategy:        p.Spec.Strategy,
		Status:          p.State,
		TotalPoints:     p.Spec.Budget(),
		CompletedPoints: len(p.Done),
		ExecutedPoints:  p.Executed,
		ResumedPoints:   p.Resumed,
		Error:           p.Error,
	}
	for _, c := range p.Done {
		switch {
		case c.Invalid:
			st.InvalidPoints++
		case !c.Feasible:
			st.InfeasiblePoints++
		}
	}
	switch p.State {
	case StatusDone:
		st.Front = p.Result.Front
	case StatusRunning:
		if front := computeFront(p.Spec, p.Done); len(front) > 0 {
			st.Front = front
		}
	}
	return st
}
