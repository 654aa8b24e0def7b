package opt

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/job"
)

// testSpec is a small, fast search over the real grid: 3 generations of
// 6 on the ResNet-50 workload.
func testSpec(strategy string) Spec {
	return Spec{
		Preset:      "fb",
		Network:     "ResNet-50",
		Strategy:    strategy,
		Generations: 3,
		Population:  6,
		Seed:        11,
	}.WithDefaults()
}

func mustRun(t *testing.T, spec Spec, dir string, parallelism int) *Result {
	t.Helper()
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Spec: spec, ID: id, Dir: dir, Eval: DirectEval(), Parallelism: parallelism}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func frontJSON(t *testing.T, front []FrontPoint) string {
	t.Helper()
	b, err := json.Marshal(front)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunnerProducesFront(t *testing.T) {
	res := mustRun(t, testSpec(StrategyEvolve), "", 4)
	if len(res.Front) == 0 {
		t.Fatal("unconstrained search produced an empty front")
	}
	if res.Completed != res.Executed+res.Resumed {
		t.Errorf("Completed %d != Executed %d + Resumed %d", res.Completed, res.Executed, res.Resumed)
	}
	if res.Completed != 18 {
		t.Errorf("Completed = %d, want the full 3x6 budget", res.Completed)
	}
	for _, p := range res.Front {
		if p.Config == "" || p.ConfigHash == "" {
			t.Errorf("front point without config identity: %+v", p)
		}
		if p.Metrics.FPS <= 0 || p.Metrics.AreaMM2 <= 0 || p.Metrics.PowerW <= 0 {
			t.Errorf("front point with non-positive metrics: %+v", p)
		}
	}
}

func TestRunnerResumeByteIdentical(t *testing.T) {
	spec := testSpec(StrategyEvolve)
	control := mustRun(t, spec, t.TempDir(), 2)

	// Interrupted run: cancel after 5 evaluated points, mid-search.
	dir := t.TempDir()
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial atomic.Int64
	r := &Runner{
		Spec: spec, ID: id, Dir: dir, Eval: DirectEval(), Parallelism: 2,
		Hooks: Hooks{Executed: func(CandidateResult) {
			if partial.Add(1) == 5 {
				cancel()
			}
		}},
	}
	if _, err := r.Run(ctx); err == nil {
		t.Fatal("interrupted run should return an error")
	}
	if _, err := os.Stat(CheckpointPath(dir, id)); err != nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}

	// Resume to completion and compare byte-for-byte.
	r2 := &Runner{Spec: spec, ID: id, Dir: dir, Eval: DirectEval(), Parallelism: 2}
	res, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed == 0 {
		t.Error("resumed run recovered no checkpointed points")
	}
	if res.Executed+res.Resumed != res.Completed {
		t.Errorf("duplicate evaluations: Executed %d + Resumed %d != Completed %d", res.Executed, res.Resumed, res.Completed)
	}
	if res.Completed != control.Completed {
		t.Errorf("resumed Completed = %d, control %d", res.Completed, control.Completed)
	}
	got, want := frontJSON(t, res.Front), frontJSON(t, control.Front)
	if got != want {
		t.Errorf("resumed front differs from control:\n got %s\nwant %s", got, want)
	}
}

func TestRunnerParallelismIndependence(t *testing.T) {
	for _, strategy := range Strategies() {
		spec := testSpec(strategy)
		a := mustRun(t, spec, "", 1)
		b := mustRun(t, spec, "", 6)
		if got, want := frontJSON(t, a.Front), frontJSON(t, b.Front); got != want {
			t.Errorf("%s: front depends on parallelism:\n p=1 %s\n p=6 %s", strategy, want, got)
		}
	}
}

func TestRunnerBudgetConstraints(t *testing.T) {
	// First pass unconstrained to learn the area range, then constrain
	// to the smallest evaluated area so most points become infeasible.
	probe := mustRun(t, testSpec(StrategyRandom), "", 4)
	minArea := 0.0
	for _, p := range probe.Front {
		if minArea == 0 || p.Metrics.AreaMM2 < minArea {
			minArea = p.Metrics.AreaMM2
		}
	}
	spec := testSpec(StrategyRandom)
	spec.AreaBudgetMM2 = minArea
	res := mustRun(t, spec, "", 4)
	for _, p := range res.Front {
		if p.Metrics.AreaMM2 > spec.AreaBudgetMM2 {
			t.Errorf("front point breaks the area budget: %g > %g", p.Metrics.AreaMM2, spec.AreaBudgetMM2)
		}
	}
	if res.Infeasible == 0 {
		t.Error("tight budget produced no infeasible points — constraint not exercised")
	}
}

func TestRunnerRecordsInvalidPoints(t *testing.T) {
	// Reuses 0 on a feedback base is architecturally invalid: the
	// search must record the hole and keep going, never fail.
	spec := Spec{
		Preset:      "fb",
		Network:     "ResNet-50",
		Strategy:    StrategyRandom,
		Generations: 2,
		Population:  6,
		Seed:        3,
		Space:       Space{Reuses: []int{0, 15}},
	}.WithDefaults()
	res := mustRun(t, spec, "", 4)
	if res.Invalid == 0 {
		t.Error("expected some invalid Reuses=0 candidates to be recorded")
	}
	for _, p := range res.Front {
		if p.Reuses == 0 {
			t.Errorf("invalid point leaked into the front: %+v", p)
		}
	}
}

func TestRunnerYieldAxis(t *testing.T) {
	spec := Spec{
		Preset:      "fb",
		Network:     "ResNet-50",
		Strategy:    StrategyRandom,
		Generations: 2,
		Population:  4,
		Seed:        5,
		YieldTrials: 4,
	}.WithDefaults()
	a := mustRun(t, spec, "", 2)
	b := mustRun(t, spec, "", 4)
	if len(a.Front) == 0 {
		t.Fatal("yield search produced no front")
	}
	for _, p := range a.Front {
		if p.Metrics.Yield < 0 || p.Metrics.Yield > 1 {
			t.Errorf("yield %g outside [0,1]", p.Metrics.Yield)
		}
	}
	if got, want := frontJSON(t, a.Front), frontJSON(t, b.Front); got != want {
		t.Errorf("yield front depends on parallelism:\n%s\n%s", got, want)
	}
}

func TestCheckpointGuards(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCheckpoint(CheckpointPath(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing checkpoint should be ErrNotExist, got %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"Version":99,"ID":"x","Spec":{},"Done":null,"Front":null}`), 0o644)
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Error("version mismatch accepted")
	}
	os.WriteFile(bad, []byte(`{"Version":1,"ID":"","Spec":{},"Done":null,"Front":null}`), 0o644)
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Error("empty ID accepted")
	}

	// A checkpoint for a different search must not be resumed.
	spec := testSpec(StrategyRandom)
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Write(CheckpointPath(dir, id), &Checkpoint{Checkpoint: job.Checkpoint[Spec, CandidateResult]{Version: 1, ID: "someone-else", Spec: spec}}); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Spec: spec, ID: id, Dir: dir, Eval: DirectEval()}
	if _, err := r.Run(context.Background()); !errors.Is(err, job.ErrWrongJob) {
		t.Errorf("wrong-ID checkpoint: got %v, want job.ErrWrongJob", err)
	}
}

func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(ManagerConfig{Dir: dir, Eval: DirectEval(), Parallelism: 4, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	spec := testSpec(StrategyRandom)
	j, created, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first Start should create the job")
	}
	// Resubmitting the same spec attaches (created=false) whether the
	// job is still running or just finished-and-restarted semantics;
	// while live it must be the same job.
	if j2, created2, err := m.Start(spec); err == nil && created2 && j2 != j {
		t.Error("resubmit created a second live job for the same identity")
	}
	<-j.Done()
	st := j.Status()
	if st.Status != StatusDone {
		t.Fatalf("status = %s (%s), want done", st.Status, st.Error)
	}
	if len(st.Front) == 0 || st.CompletedPoints != st.TotalPoints {
		t.Errorf("unexpected final status: %+v", st)
	}

	// The checkpoint now reads back as done.
	disk, err := m.StatusFromDisk(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if disk.Status != StatusDone || len(disk.Front) != len(st.Front) {
		t.Errorf("disk status = %+v, want done with the same front", disk)
	}

	// A partial checkpoint reads back as interrupted.
	other := testSpec(StrategyRandom)
	other.Seed = 99
	oid, err := other.ID()
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{Checkpoint: job.Checkpoint[Spec, CandidateResult]{Version: 1, ID: oid, Spec: other, Done: []CandidateResult{{Gen: 0, Index: 0, Feasible: true}}}}
	if err := job.Write(CheckpointPath(dir, oid), cp); err != nil {
		t.Fatal(err)
	}
	disk, err = m.StatusFromDisk(oid)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Status != StatusInterrupted || disk.ResumedPoints != 1 {
		t.Errorf("partial checkpoint status = %+v, want interrupted/1", disk)
	}
}

func TestManagerBusy(t *testing.T) {
	block := make(chan struct{})
	var blocked atomic.Bool
	slowEval := PointEval(func(ctx context.Context, _ Spec, _ arch.SystemConfig, _ string) (PointMetrics, error) {
		if blocked.CompareAndSwap(false, true) {
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return PointMetrics{FPS: 1, FPSPerWatt: 1, FPSPerMM2: 1, PAP: 1, PowerW: 1, AreaMM2: 1}, nil
	})
	m, err := NewManager(ManagerConfig{Eval: slowEval, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Start(testSpec(StrategyRandom)); err != nil {
		t.Fatal(err)
	}
	other := testSpec(StrategyRandom)
	other.Seed = 1234
	if _, _, err := m.Start(other); !errors.Is(err, job.ErrBusy) {
		t.Errorf("second search should hit job.ErrBusy, got %v", err)
	}
	close(block)
}

func TestStreamUpdatesFinalLine(t *testing.T) {
	m, err := NewManager(ManagerConfig{Eval: DirectEval(), Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, _, err := m.Start(testSpec(StrategyRandom))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/optimize", nil)
	lines := 0
	job.Stream(rec, req, j, func() { lines++ })
	if lines == 0 {
		t.Fatal("stream produced no lines")
	}
	if ct := rec.Header().Get("Content-Type"); ct != job.NDJSONContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	dec := json.NewDecoder(rec.Body)
	var last Update
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Type != "done" || last.Status == nil || last.Status.Status != StatusDone {
		t.Errorf("final line = %+v, want done with status", last)
	}
	if len(last.Status.Front) == 0 {
		t.Error("final status carries no front")
	}
}

// TestManagerFailedSearchAndGet: an evaluator error fails the search
// (terminal "failed" with the error preserved), Get finds live jobs by
// ID and rejects unknown ones, and a dirless manager reports
// os.ErrNotExist from StatusFromDisk.
func TestManagerFailedSearchAndGet(t *testing.T) {
	boom := PointEval(func(context.Context, Spec, arch.SystemConfig, string) (PointMetrics, error) {
		return PointMetrics{}, errors.New("eval exploded")
	})
	m, err := NewManager(ManagerConfig{Eval: boom, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, _, err := m.Start(testSpec(StrategyRandom))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Get(j.ID()); !ok || got != j {
		t.Errorf("Get(%q) = (%v, %v), want the started job", j.ID(), got, ok)
	}
	if _, ok := m.Get("nope"); ok {
		t.Error("Get found a job for an unknown ID")
	}
	<-j.Done()
	st := j.Status()
	if st.Status != StatusFailed || !strings.Contains(st.Error, "eval exploded") {
		t.Errorf("failed search status = %q error = %q, want failed/eval exploded", st.Status, st.Error)
	}
	if _, err := m.StatusFromDisk(j.ID()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("dirless StatusFromDisk error = %v, want os.ErrNotExist", err)
	}
}
