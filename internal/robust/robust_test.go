package robust

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refocus/internal/faults"
	"refocus/internal/job"
)

// testSpec is a deliberately tiny campaign: 2 severities × 4 trials with
// a small reference task, so a full run (including per-trial accuracy
// evaluation through the JTC noise model) stays test-fast.
func testSpec() Spec {
	return Spec{
		Preset:     "fb",
		Severities: []float64{0, 1.5},
		Trials:     4,
		Seed:       11,
		Model:      faults.MonteCarloModel{RFCUFailProb: 0.2, WavelengthFailProb: 0.05, BufferLossSigmaDB: 0.4},
		Task:       TaskSpec{Classes: 2, Size: 4, TrainSamples: 6, TestSamples: 4, Epochs: 1, LearningRate: 0.05},
	}.WithDefaults()
}

// fakeEval is a deterministic, instant TrialEval: metrics derive purely
// from the sampled fault set, standing in for the real evaluator in
// runner-mechanics tests.
func fakeEval(ctx context.Context, spec Spec, fs faults.FaultSet, _ string) (TrialMetrics, error) {
	if err := ctx.Err(); err != nil {
		return TrialMetrics{}, err
	}
	return TrialMetrics{
		FPS:    1000 - 10*float64(len(fs.DeadRFCUs)) - fs.BufferExcessLossDB,
		Energy: 1 + 0.1*float64(len(fs.DeadWavelengths)),
	}, nil
}

// mustID resolves a spec's campaign identity.
func mustID(t *testing.T, spec Spec) string {
	t.Helper()
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// runCampaign runs a spec to completion in dir.
func runCampaign(t *testing.T, spec Spec, dir string, par int) *Result {
	t.Helper()
	r := &Runner{Spec: spec, ID: mustID(t, spec), Dir: dir, Eval: fakeEval, Parallelism: par}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// marshalFrontier canonicalizes a frontier for byte comparison.
func marshalFrontier(t *testing.T, f []FrontierPoint) []byte {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTrialSeedIndexDerived: every trial a campaign records carries the
// seed of its (severity, trial) cell, job.CellSeed of the campaign seed,
// whatever the parallelism; the seeds are distinct, and a different
// campaign seed moves them.
func TestTrialSeedIndexDerived(t *testing.T) {
	trialSeeds := func(spec Spec, par int) map[[2]int]int64 {
		t.Helper()
		dir := t.TempDir()
		runCampaign(t, spec, dir, par)
		cp, err := LoadCheckpoint(CheckpointPath(dir, mustID(t, spec)))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[[2]int]int64, len(cp.Done))
		for _, tr := range cp.Done {
			out[[2]int{tr.Severity, tr.Trial}] = tr.Seed
		}
		return out
	}
	spec := testSpec()
	serial, parallel := trialSeeds(spec, 1), trialSeeds(spec, 4)
	if total := len(spec.Severities) * spec.Trials; len(serial) != total {
		t.Fatalf("campaign recorded %d trials, want %d", len(serial), total)
	}
	seen := make(map[int64]bool)
	for cell, s := range serial {
		if want := job.CellSeed(spec.Seed, cell[0], cell[1]); s != want || parallel[cell] != want {
			t.Errorf("trial %v seeds %d (serial) and %d (parallel), want %d", cell, s, parallel[cell], want)
		}
		if seen[s] {
			t.Errorf("seed collision at trial %v", cell)
		}
		seen[s] = true
	}
	reseeded := spec
	reseeded.Seed++
	if trialSeeds(reseeded, 1)[[2]int{0, 0}] == serial[[2]int{0, 0}] {
		t.Error("different campaign seeds produced the same trial seed")
	}
}

// TestScaledModel: probabilities scale linearly and clamp at 1; severity
// zero is a perfect fab.
func TestScaledModel(t *testing.T) {
	s := Spec{Model: faults.MonteCarloModel{RFCUFailProb: 0.4, WavelengthFailProb: 0.01, BufferLossSigmaDB: 0.5}}
	m := s.ScaledModel(0)
	if m != (faults.MonteCarloModel{}) {
		t.Errorf("severity 0 should zero the model, got %+v", m)
	}
	m = s.ScaledModel(3)
	if m.RFCUFailProb != 1 {
		t.Errorf("RFCUFailProb should clamp at 1, got %g", m.RFCUFailProb)
	}
	if m.WavelengthFailProb != 0.03 || m.BufferLossSigmaDB != 1.5 {
		t.Errorf("linear scaling broken: %+v", m)
	}
}

// TestSpecIDIdentity: the campaign ID is stable across calls, sensitive
// to the knobs that change results, and insensitive to design-point
// spelling (preset alias vs canonical name).
func TestSpecIDIdentity(t *testing.T) {
	spec := testSpec()
	if mustID(t, spec) != mustID(t, spec) {
		t.Fatal("ID is not deterministic")
	}
	alias := spec
	alias.Preset = "ReFOCUS-FB"
	if mustID(t, alias) != mustID(t, spec) {
		t.Error("preset alias changed the campaign identity")
	}
	reseeded := spec
	reseeded.Seed = 99
	if mustID(t, reseeded) == mustID(t, spec) {
		t.Error("changing the seed kept the campaign identity")
	}
	retrain := spec
	retrain.Retrain = true
	if mustID(t, retrain) == mustID(t, spec) {
		t.Error("toggling Retrain kept the campaign identity")
	}
}

// TestSpecValidate rejects the malformed corners.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no design point", func(s *Spec) { s.Preset = "" }},
		{"unknown preset", func(s *Spec) { s.Preset = "nope" }},
		{"unknown network", func(s *Spec) { s.Network = "nope" }},
		{"zero trials", func(s *Spec) { s.Trials = -1 }},
		{"trial budget", func(s *Spec) { s.Trials = maxTrials + 1 }},
		{"negative severity", func(s *Spec) { s.Severities = []float64{-1} }},
		{"odd task size", func(s *Spec) { s.Task.Size = 6 }},
		{"one class", func(s *Spec) { s.Task.Classes = 1 }},
		{"bad rate", func(s *Spec) { s.Task.LearningRate = -0.1 }},
		{"bad model", func(s *Spec) { s.Model.RFCUFailProb = 1.5 }},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, spec)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("base test spec should validate: %v", err)
	}
}

// TestCampaignDeterministic: two uninterrupted runs of the same spec in
// fresh directories produce byte-identical frontiers, regardless of
// worker parallelism — retraining campaigns included, whose per-trial
// device engines must not share their noise source across goroutines.
func TestCampaignDeterministic(t *testing.T) {
	retrain := testSpec()
	retrain.Retrain = true
	for _, spec := range []Spec{testSpec(), retrain} {
		a := runCampaign(t, spec, t.TempDir(), 1)
		b := runCampaign(t, spec, t.TempDir(), 4)
		fa, fb := marshalFrontier(t, a.Frontier), marshalFrontier(t, b.Frontier)
		if !bytes.Equal(fa, fb) {
			t.Errorf("Retrain=%v: frontiers differ across parallelism:\n%s\n%s", spec.Retrain, fa, fb)
		}
		if a.CleanAccuracy != b.CleanAccuracy || a.NominalFPS != b.NominalFPS {
			t.Errorf("Retrain=%v: campaign baselines differ between identical runs", spec.Retrain)
		}
		total := len(spec.Severities) * spec.Trials
		if a.Executed != total || a.Resumed != 0 {
			t.Errorf("uninterrupted run reported executed=%d resumed=%d, want %d/0", a.Executed, a.Resumed, total)
		}
	}
}

// TestCampaignResumeByteIdentical is the checkpoint-lifecycle contract:
// a campaign canceled partway through, then rerun in the same directory,
// skips the completed trials and still produces a frontier byte-identical
// to an uninterrupted run's.
func TestCampaignResumeByteIdentical(t *testing.T) {
	spec := testSpec()
	total := len(spec.Severities) * spec.Trials

	control := runCampaign(t, spec, t.TempDir(), 2)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := &Runner{
		Spec: spec, ID: mustID(t, spec), Dir: dir, Eval: fakeEval, Parallelism: 1,
		OnUpdate: func(u Update) {
			if u.Completed >= 3 {
				cancel() // simulate the process dying mid-campaign
			}
		},
	}
	if _, err := interrupted.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	cp, err := LoadCheckpoint(CheckpointPath(dir, interrupted.ID))
	if err != nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}
	if len(cp.Done) == 0 || len(cp.Done) >= total {
		t.Fatalf("interruption left %d/%d trials checkpointed; want a strict partial", len(cp.Done), total)
	}
	if cp.Frontier != nil {
		t.Error("partial checkpoint must not carry a final frontier")
	}

	var resumedHook atomic.Int64
	resumed := &Runner{
		Spec: spec, ID: interrupted.ID, Dir: dir, Eval: fakeEval, Parallelism: 2,
		Hooks: Hooks{Resumed: func(TrialResult) { resumedHook.Add(1) }},
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != len(cp.Done) || int(resumedHook.Load()) != len(cp.Done) {
		t.Errorf("resumed=%d hook=%d, want %d", res.Resumed, resumedHook.Load(), len(cp.Done))
	}
	if res.Executed+res.Resumed != total {
		t.Errorf("executed %d + resumed %d != total %d (duplicate or lost trials)", res.Executed, res.Resumed, total)
	}
	fc, fr := marshalFrontier(t, control.Frontier), marshalFrontier(t, res.Frontier)
	if !bytes.Equal(fc, fr) {
		t.Errorf("resumed frontier differs from uninterrupted run:\ncontrol: %s\nresumed: %s", fc, fr)
	}

	// The final checkpoint now carries the frontier — running the spec
	// again is a pure resume: zero executed trials.
	again, err := (&Runner{Spec: spec, ID: interrupted.ID, Dir: dir, Eval: fakeEval}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Resumed != total {
		t.Errorf("third run executed %d trials, want 0 (all %d from checkpoint)", again.Executed, total)
	}
	if !bytes.Equal(fc, marshalFrontier(t, again.Frontier)) {
		t.Error("pure-resume frontier differs from control")
	}
}

// TestCheckpointRejectsWrongCampaign: a checkpoint file for a different
// campaign identity refuses to resume instead of mixing trials.
func TestCheckpointRejectsWrongCampaign(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	id := mustID(t, spec)
	other := &Checkpoint{Checkpoint: job.Checkpoint[Spec, TrialResult]{Version: job.Version, ID: "deadbeef", Spec: spec}}
	if err := job.Write(CheckpointPath(dir, id), other); err != nil {
		t.Fatal(err)
	}
	_, err := (&Runner{Spec: spec, ID: id, Dir: dir, Eval: fakeEval}).Run(context.Background())
	if !errors.Is(err, job.ErrWrongJob) {
		t.Fatalf("got %v, want job.ErrWrongJob", err)
	}
}

// TestCheckpointLoadRejects: version skew, unknown fields and torn files
// all fail loudly; a missing file reports os.ErrNotExist.
func TestCheckpointLoadRejects(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: got %v, want os.ErrNotExist", err)
	}
	for name, body := range map[string]string{
		"version":  `{"Version": 99, "ID": "x", "Spec": {}, "Done": []}`,
		"unknown":  `{"Version": 1, "ID": "x", "Spec": {}, "Done": [], "Bogus": 1}`,
		"torn":     `{"Version": 1, "ID": "x"`,
		"empty-id": `{"Version": 1, "ID": "", "Spec": {}, "Done": []}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil {
			t.Errorf("%s: LoadCheckpoint accepted %s", name, body)
		}
	}
}

// TestRetrainCampaign: the Retrain flag populates the retrained-accuracy
// distribution on surviving trials.
func TestRetrainCampaign(t *testing.T) {
	spec := testSpec()
	spec.Severities = []float64{1}
	spec.Trials = 2
	spec.Retrain = true
	res := runCampaign(t, spec, "", 2)
	if len(res.Frontier) != 1 {
		t.Fatalf("want 1 frontier point, got %d", len(res.Frontier))
	}
	p := res.Frontier[0]
	if p.Trials != 2 {
		t.Fatalf("frontier counted %d trials, want 2", p.Trials)
	}
	if p.Trials-p.Failed > 0 && p.Retrained == nil {
		t.Error("surviving retrain trials reported no retrained distribution")
	}
}

// TestDirectEvalNominal: the in-process evaluator produces positive
// metrics for a healthy design point and degrades under a fault set.
func TestDirectEvalNominal(t *testing.T) {
	spec := testSpec()
	eval := DirectEval()
	healthy, err := eval(context.Background(), spec, faults.FaultSet{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if healthy.FPS <= 0 || healthy.Energy <= 0 {
		t.Fatalf("nominal metrics must be positive: %+v", healthy)
	}
	degraded, err := eval(context.Background(), spec, faults.FaultSet{Name: "t", DeadRFCUs: []int{0, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if degraded.FPS >= healthy.FPS {
		t.Errorf("dead RFCUs should cost throughput: degraded %.1f >= healthy %.1f", degraded.FPS, healthy.FPS)
	}
}

// TestManagerLifecycle: Start runs a campaign to done, resubmission
// attaches while running and reports done afterwards, unknown IDs miss,
// and StatusFromDisk sees the finished checkpoint.
func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(ManagerConfig{Dir: dir, Eval: fakeEval, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	spec := testSpec()
	job, created, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Start did not create the job")
	}
	<-job.Done()
	st := job.Status()
	if st.Status != StatusDone {
		t.Fatalf("campaign ended %q: %s", st.Status, st.Error)
	}
	total := len(spec.Severities) * spec.Trials
	if st.CompletedTrials != total || len(st.Frontier) != len(spec.Severities) {
		t.Errorf("status reports %d/%d trials, %d frontier points", st.CompletedTrials, total, len(st.Frontier))
	}

	if _, ok := m.Get("nope"); ok {
		t.Error("Get returned a job for an unknown ID")
	}
	disk, err := m.StatusFromDisk(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if disk.Status != StatusDone || len(disk.Frontier) != len(spec.Severities) {
		t.Errorf("disk status %q with %d frontier points", disk.Status, len(disk.Frontier))
	}

	// A second Start on the finished campaign resumes from the final
	// checkpoint: it completes with zero executed trials.
	job2, _, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job2.Done()
	if st := job2.Status(); st.ExecutedTrials != 0 || st.ResumedTrials != total {
		t.Errorf("re-run executed %d / resumed %d, want 0/%d", st.ExecutedTrials, st.ResumedTrials, total)
	}
}

// TestManagerBusy: MaxActive bounds concurrent campaigns with
// job.ErrBusy.
func TestManagerBusy(t *testing.T) {
	release := make(chan struct{})
	slowEval := func(ctx context.Context, spec Spec, fs faults.FaultSet, key string) (TrialMetrics, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return TrialMetrics{}, ctx.Err()
		}
		return fakeEval(ctx, spec, fs, key)
	}
	m, err := NewManager(ManagerConfig{Eval: slowEval, MaxActive: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(release)

	first := testSpec()
	if _, _, err := m.Start(first); err != nil {
		t.Fatal(err)
	}
	second := testSpec()
	second.Seed = 999
	if _, _, err := m.Start(second); !errors.Is(err, job.ErrBusy) {
		t.Fatalf("second campaign got %v, want job.ErrBusy", err)
	}
	// Re-submitting the *same* spec attaches instead of counting against
	// the budget.
	if _, created, err := m.Start(first); err != nil || created {
		t.Fatalf("idempotent resubmit: created=%v err=%v", created, err)
	}
}

// TestJobSubscribe: subscribers see trial updates and the channel closes
// on completion; late subscribers get an already-closed channel.
func TestJobSubscribe(t *testing.T) {
	m, err := NewManager(ManagerConfig{Eval: fakeEval, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := testSpec()
	job, _, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := job.Subscribe()
	defer cancel()
	saw := 0
	for range ch {
		saw++
	}
	<-job.Done()
	if saw == 0 {
		t.Error("subscriber saw no updates before close")
	}
	late, lateCancel := job.Subscribe()
	defer lateCancel()
	if _, ok := <-late; ok {
		t.Error("late subscriber's channel should be closed immediately")
	}
}

// TestResumedStatusShowsFrontier: a running campaign's status builds its
// incumbent frontier from every completed trial, so the trials a resume
// recovered from the checkpoint show up before any new trial finishes.
func TestResumedStatusShowsFrontier(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	partial := &Runner{
		Spec: spec, ID: mustID(t, spec), Dir: dir, Eval: fakeEval, Parallelism: 1,
		OnUpdate: func(u Update) {
			if u.Completed >= 2 {
				cancel()
			}
		},
	}
	if _, err := partial.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	cp, err := LoadCheckpoint(CheckpointPath(dir, partial.ID))
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	defer close(release)
	blocked := func(ctx context.Context, spec Spec, fs faults.FaultSet, key string) (TrialMetrics, error) {
		if !strings.HasSuffix(key, "|nominal") {
			select {
			case <-release:
			case <-ctx.Done():
				return TrialMetrics{}, ctx.Err()
			}
		}
		return fakeEval(ctx, spec, fs, key)
	}
	m, err := NewManager(ManagerConfig{Dir: dir, Eval: blocked, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, _, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	st := j.Status()
	for st.ResumedTrials < len(cp.Done) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = j.Status()
	}
	if st.Status != StatusRunning || st.ResumedTrials != len(cp.Done) || st.CompletedTrials != len(cp.Done) {
		t.Fatalf("resumed campaign status %q completed=%d resumed=%d, want running %d/%d",
			st.Status, st.CompletedTrials, st.ResumedTrials, len(cp.Done), len(cp.Done))
	}
	counted := 0
	for _, p := range st.Frontier {
		counted += p.Trials
	}
	if len(st.Frontier) == 0 || counted != len(cp.Done) {
		t.Errorf("running frontier covers %d trials in %d points, want the %d resumed ones", counted, len(st.Frontier), len(cp.Done))
	}
}
