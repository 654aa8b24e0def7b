package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/job"
	"refocus/internal/obs"
	"refocus/internal/opt"
	"refocus/internal/robust"
)

// cellEval evaluates one job cell's request on a tier (Tier.cell).
// routeKey places the cell on a cluster's ring (a campaign's trial seed,
// a candidate's config hash), so a fixed cell always lands on the same
// shard.
type cellEval func(ctx context.Context, req EvaluateRequest, routeKey string) ([]arch.Report, error)

// Jobs is one tier's long-running work: the robustness campaigns and
// design-space searches it runs, their managers and their metrics. A
// campaign or search runs in the tier's process; only its cells travel,
// through the tier's Point.
type Jobs struct {
	campaigns     *robust.Manager
	searches      *opt.Manager
	campaignCount *jobMetrics
	searchCount   *jobMetrics
}

// NewJobs builds a tier's job managers, checkpointing into campaignDir
// and optimizeDir ("" runs that kind without durability), with at most
// parallelism cells in flight per job, counted on the tier's registry,
// and mounts their routes on the tier.
func NewJobs(t *Tier, campaignDir, optimizeDir string, parallelism int) (*Jobs, error) {
	reg, eval := t.tc.Metrics, t.cell
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
	mountJobs(t, "/v1/robustness", "campaign", j.campaigns)
	mountJobs(t, "/v1/optimize", "search", j.searches)
	return j, nil
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
func mountJobs[S job.Spec[S], R job.Record, F, St any](t *Tier, path, noun string, m *job.Manager[S, R, F, St]) {
	t.Handle("POST "+path, path, func(w http.ResponseWriter, r *http.Request) {
		var spec S
		if err := t.decode(w, r, &spec); err != nil {
			t.writeError(w, err)
			return
		}
		j, created, err := m.Start(spec)
		switch {
		case errors.Is(err, job.ErrBusy):
			t.writeError(w, &apiError{status: http.StatusTooManyRequests, retryAfter: 5, err: err})
		case err != nil:
			t.writeError(w, badRequest(err))
		case wantsNDJSON(r):
			job.Stream(w, r, j, t.streamLines.Inc)
		case created:
			t.writeJSON(w, http.StatusAccepted, j.Status())
		default:
			t.writeJSON(w, http.StatusOK, j.Status())
		}
	})
	t.Handle("GET "+path+"/{id}", path+"/status", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if j, ok := m.Get(id); ok {
			t.writeJSON(w, http.StatusOK, j.Status())
			return
		}
		st, err := m.StatusFromDisk(id)
		if errors.Is(err, os.ErrNotExist) {
			err = &apiError{status: http.StatusNotFound, err: fmt.Errorf("serve: no %s %q", noun, id)}
		}
		if err != nil {
			t.writeError(w, err)
			return
		}
		t.writeJSON(w, http.StatusOK, st)
	})
}

// trialEval adapts a tier's cellEval to campaign trials: the campaign's
// design point and workload, degraded by the trial's fault set (none for
// the nominal machine).
func trialEval(eval cellEval) robust.TrialEval {
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

// pointEval adapts a tier's cellEval to search candidates: the
// materialized design point on the search's workload. A candidate any
// earlier search or request visited is a cache hit, not an evaluation.
func pointEval(eval cellEval) opt.PointEval {
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
