package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/job"
	"refocus/internal/obs"
	"refocus/internal/opt"
	"refocus/internal/robust"
)

// Tier is what a serving tier (the worker Server or the cluster
// Coordinator) lends the request plumbing both tiers share: its body
// size cap, its JSON response writer and its stream-line counter.
type Tier struct {
	MaxBodyBytes int64
	WriteJSON    func(w http.ResponseWriter, status int, v any)
	StreamLine   func()
}

// Decode strictly parses the request body into v, enforcing the body
// cap and rejecting unknown fields and trailing data.
func (t Tier) Decode(w http.ResponseWriter, r *http.Request, v any) error {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, t.MaxBodyBytes))
	if err != nil {
		return fmt.Errorf("serve: reading body: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return BadRequest(fmt.Errorf("serve: parsing request: %w", err))
	}
	if dec.More() {
		return BadRequest(errors.New("serve: parsing request: trailing data after JSON object"))
	}
	return nil
}

// WriteError sends the structured error payload for err with StatusOf's
// status, honoring any Retry-After hint the error carries.
func (t Tier) WriteError(w http.ResponseWriter, err error) {
	status := StatusOf(err)
	var ae *apiError
	if errors.As(err, &ae) && ae.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
	}
	t.WriteJSON(w, status, ErrorResponse{Error: err.Error(), Status: status})
}

// CellEval evaluates one job cell's request on a tier, waiting out any
// shed instead of failing the job: shedding protects request latency,
// and job cells are deferrable by definition. routeKey places the cell
// on a cluster's ring (a campaign's trial seed, a candidate's config
// hash), so a fixed cell always lands on the same shard.
type CellEval func(ctx context.Context, req EvaluateRequest, routeKey string) ([]arch.Report, error)

// Jobs is one tier's long-running work: the robustness campaigns and
// design-space searches it runs, their managers and their metrics. A
// campaign or search runs in the tier's process; only its cells travel,
// through the tier's CellEval.
type Jobs struct {
	campaigns     *robust.Manager
	searches      *opt.Manager
	campaignCount *jobMetrics
	searchCount   *jobMetrics
}

// NewJobs builds a tier's job managers, checkpointing into campaignDir
// and optimizeDir ("" runs that kind without durability), with at most
// parallelism cells in flight per job, counted on reg.
func NewJobs(reg *obs.Registry, campaignDir, optimizeDir string, parallelism int, eval CellEval) (*Jobs, error) {
	j := &Jobs{
		campaignCount: newJobMetrics(reg, "robustness", "Robustness", "campaigns", "trials"),
		searchCount:   newJobMetrics(reg, "optimize", "Design-space", "searches", "points"),
	}
	var err error
	j.campaigns, err = robust.NewManager(robust.ManagerConfig{
		Dir: campaignDir, Eval: trialEval(eval), Parallelism: parallelism, Hooks: countHooks[robust.TrialResult](j.campaignCount),
	})
	if err != nil {
		return nil, err
	}
	j.searches, err = opt.NewManager(opt.ManagerConfig{
		Dir: optimizeDir, Eval: pointEval(eval), Parallelism: parallelism, Hooks: countHooks[opt.CandidateResult](j.searchCount),
	})
	if err != nil {
		j.campaigns.Close()
		return nil, err
	}
	return j, nil
}

// Mount registers the start and status routes of both job kinds on mux,
// each handler wrapped by the tier's middleware under a metrics label.
// The label of a status route avoids the path pattern's braces, which
// collide with the Prometheus exposition's label syntax.
func (j *Jobs) Mount(mux *http.ServeMux, wrap func(label string, h http.HandlerFunc) http.Handler, t Tier) {
	mountJobs(mux, wrap, t, "/v1/robustness", "campaign", j.campaigns)
	mountJobs(mux, wrap, t, "/v1/optimize", "search", j.searches)
}

// Close cancels the running jobs and waits for them to unwind; their
// checkpoints survive for the next incarnation to resume.
func (j *Jobs) Close() {
	j.campaigns.Close()
	j.searches.Close()
}

// Stats reports both kinds' counters in the frozen /metrics shape.
func (j *Jobs) Stats() (RobustnessStats, OptimizeStats) {
	r, o := j.campaignCount, j.searchCount
	return RobustnessStats{Campaigns: r.started.Value(), Active: r.active.Load(), Trials: r.executed.Value(), TrialsResumed: r.resumed.Value()},
		OptimizeStats{Searches: o.started.Value(), Active: o.active.Load(), Points: o.executed.Value(), PointsResumed: o.resumed.Value()}
}

// mountJobs registers one kind's handler pair: POST path starts (or
// attaches to, or resumes) a job and answers its status — 202 for a new
// job, 200 when attaching — or, for NDJSON requests, streams its lines
// until it finishes; GET path/{id} reports the live job, or the
// checkpoint's view of a finished or interrupted one.
func mountJobs[S job.Spec[S], R job.Record, F, St any](mux *http.ServeMux, wrap func(string, http.HandlerFunc) http.Handler,
	t Tier, path, noun string, m *job.Manager[S, R, F, St]) {
	mux.Handle("POST "+path, wrap(path, func(w http.ResponseWriter, r *http.Request) {
		var spec S
		if err := t.Decode(w, r, &spec); err != nil {
			t.WriteError(w, err)
			return
		}
		j, created, err := m.Start(spec)
		switch {
		case errors.Is(err, job.ErrBusy):
			t.WriteError(w, &apiError{status: http.StatusTooManyRequests, retryAfter: 5, err: err})
		case err != nil:
			t.WriteError(w, BadRequest(err))
		case WantsNDJSON(r):
			job.Stream(w, r, j, t.StreamLine)
		case created:
			t.WriteJSON(w, http.StatusAccepted, j.Status())
		default:
			t.WriteJSON(w, http.StatusOK, j.Status())
		}
	}))
	mux.Handle("GET "+path+"/{id}", wrap(path+"/status", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if j, ok := m.Get(id); ok {
			t.WriteJSON(w, http.StatusOK, j.Status())
			return
		}
		st, err := m.StatusFromDisk(id)
		if errors.Is(err, os.ErrNotExist) {
			err = &apiError{status: http.StatusNotFound, err: fmt.Errorf("serve: no %s %q", noun, id)}
		}
		if err != nil {
			t.WriteError(w, err)
			return
		}
		t.WriteJSON(w, http.StatusOK, st)
	}))
}

// trialEval adapts a tier's CellEval to campaign trials: the campaign's
// design point and workload, degraded by the trial's fault set (none for
// the nominal machine).
func trialEval(eval CellEval) robust.TrialEval {
	return func(ctx context.Context, spec robust.Spec, fs faults.FaultSet, routeKey string) (robust.TrialMetrics, error) {
		req := EvaluateRequest{Preset: spec.Preset, Config: spec.Config, Network: spec.Network}
		if !fs.IsZero() {
			data, err := json.Marshal(fs.Canonical())
			if err != nil {
				return robust.TrialMetrics{}, err
			}
			req.Faults = data
		}
		reports, err := eval(ctx, req, routeKey)
		if err != nil {
			return robust.TrialMetrics{}, err
		}
		return robust.TrialMetricsFromReports(reports), nil
	}
}

// pointEval adapts a tier's CellEval to search candidates: the
// materialized design point on the search's workload. A candidate any
// earlier search or request visited is a cache hit, not an evaluation.
func pointEval(eval CellEval) opt.PointEval {
	return func(ctx context.Context, spec opt.Spec, cfg arch.SystemConfig, routeKey string) (opt.PointMetrics, error) {
		data, err := arch.ConfigJSON(cfg)
		if err != nil {
			return opt.PointMetrics{}, err
		}
		reports, err := eval(ctx, EvaluateRequest{Config: data, Network: spec.Network}, routeKey)
		if err != nil {
			return opt.PointMetrics{}, err
		}
		return opt.PointMetricsFromReports(reports), nil
	}
}

// jobMetrics counts one job kind on one tier: jobs started and running,
// cells completed and resumed.
type jobMetrics struct {
	started, executed, resumed *obs.Counter
	active                     atomic.Int64
}

// newJobMetrics registers a kind's families on reg under the shared
// vocabulary refocus_<kind>_<jobs>_total, refocus_<kind>_<cells>_total,
// refocus_<kind>_<cells>_resumed_total and refocus_<kind>_active_<jobs>.
func newJobMetrics(reg *obs.Registry, kind, title, jobs, cells string) *jobMetrics {
	prefix := "refocus_" + kind + "_"
	m := &jobMetrics{
		started:  reg.Counter(prefix+jobs+"_total", fmt.Sprintf("%s %s started on this process (resumed %s count again).", title, jobs, jobs), nil),
		executed: reg.Counter(prefix+cells+"_total", fmt.Sprintf("%s %s completed by this process (evaluated here or dispatched to shards).", title, cells), nil),
		resumed:  reg.Counter(prefix+cells+"_resumed_total", fmt.Sprintf("%s %s recovered from checkpoints instead of recomputed.", title, cells), nil),
	}
	reg.Gauge(prefix+"active_"+jobs, fmt.Sprintf("%s %s currently running.", title, jobs), nil,
		func() float64 { return float64(m.active.Load()) })
	return m
}

// countHooks are the job hooks that feed m.
func countHooks[R any](m *jobMetrics) job.Hooks[R] {
	return job.Hooks[R]{
		Started:  func() { m.started.Inc(); m.active.Add(1) },
		Finished: func(error) { m.active.Add(-1) },
		Executed: func(R) { m.executed.Inc() },
		Resumed:  func(R) { m.resumed.Inc() },
	}
}
