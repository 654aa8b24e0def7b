package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10}, {0.1, 1.4}, {0.9, 7.6},
	} {
		if got := quantile(sorted, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := summarize([]float64{4, 1, 3, 2}); got != (Summary{Median: 2.5, Q1: 1.75, Q3: 3.25}) {
		t.Errorf("summarize = %+v", got)
	}
	if got := summarize([]float64{7}); got != (Summary{Median: 7, Q1: 7, Q3: 7}) {
		t.Errorf("one value: %+v", got)
	}
	if got := summarize(nil); got != (Summary{}) {
		t.Errorf("no values: %+v", got)
	}
}

func TestWinsFollowTheBetterDirection(t *testing.T) {
	parent := []float64{10, 10, 10, 10}
	change := []float64{11, 9, 10, 12}
	if got := wins(parent, change, "higher"); got != 2 {
		t.Errorf("higher: %d wins, want 2 (a tie is not a win)", got)
	}
	if got := wins(parent, change, "lower"); got != 1 {
		t.Errorf("lower: %d wins, want 1", got)
	}
	m := metricLedger(metricDef{Name: "ops", Better: "higher"}, []float64{100, 110, 90, 100}, []float64{120, 120, 130, 110})
	if m.ChangeWins != 4 || m.Parent.Median != 100 || m.Change.Median != 120 ||
		math.Abs(m.ChangePct-20) > 1e-12 || m.ParentIQR != 102.5-97.5 {
		t.Errorf("ledger %+v", m)
	}
}

func TestParseSeeds(t *testing.T) {
	for spec, want := range map[string][]int{"1-3": {1, 2, 3}, "11,14, 12": {11, 14, 12}, "5-5": {5}} {
		got, err := parseSeeds(spec)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: %v %v, want %v", spec, got, err, want)
		}
	}
	for _, bad := range []string{"3-1", "a-2", "1,x", ""} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// resultLine is a perfbench result line with the two metrics of defs.
func resultLine(correct bool, failed int64, ops float64) string {
	return fmt.Sprintf(`{"correct": %v, "attempted": 100, "failed": %d, "metrics": {"ops_per_cpu_s": {"value": %g, "unit": "1/s"}, "p50_ms": {"value": 1, "unit": "ms"}}}`,
		correct, failed, ops)
}

// defs are the end-to-end metrics the fake runs report.
var defs = []metricDef{{Name: "ops_per_cpu_s", Unit: "1/s", Better: "higher"}, {Name: "p50_ms", Unit: "ms", Better: "lower"}}

// TestParseResultRequiresEveryMetric: a result line counts only when it
// carries a value for every end-to-end metric.
func TestParseResultRequiresEveryMetric(t *testing.T) {
	if res, err := parseResult([]byte("table\n"+resultLine(true, 0, 7)+"\n\n"), defs); err != nil || *res.Metrics["ops_per_cpu_s"].Value != 7 {
		t.Fatalf("complete line: %+v, %v", res, err)
	}
	for _, line := range []string{
		`{"correct": true, "metrics": {"ops_per_cpu_s": {"value": 7}}}`,
		`{"correct": true, "metrics": {"ops_per_cpu_s": {"value": 7}, "p50_ms": {"unit": "ms"}}}`,
		`{"correct": true, "metrics": {}}`,
		`{"correct": true}`,
		`build failed`,
	} {
		if _, err := parseResult([]byte(line), defs); err == nil {
			t.Errorf("%s accepted", line)
		}
	}
}

// TestPairsAlternateAndCount: odd seeds run the parent first and even
// seeds the change; a run without a complete result line, an incorrect
// run and a run with failed operations each count against their side and
// drop their pair; the ledger is saved after every pair.
func TestPairsAlternateAndCount(t *testing.T) {
	var calls []string
	fake := func(dir, workload string, seed, seconds int) ([]byte, error) {
		calls = append(calls, fmt.Sprintf("%s/%s/%d/%d", dir, workload, seed, seconds))
		switch {
		case dir == "P" && seed == 3:
			return []byte("build failed\n"), errors.New("exit status 1")
		case dir == "P":
			return []byte("table\n" + resultLine(true, 0, 100+float64(seed)) + "\n"), nil
		case seed == 2:
			return []byte(resultLine(false, 0, 90)), errors.New("exit status 1")
		case seed == 5:
			return []byte(`{"correct": true, "attempted": 100, "failed": 0, "metrics": {"ops_per_cpu_s": {"value": 0}}}`), nil
		case seed == 6:
			return []byte(resultLine(true, 5, 300)), errors.New("exit status 1")
		default:
			return []byte(resultLine(true, 0, 200)), nil
		}
	}
	l := &Ledger{Parent: "P", Change: "C", Seeds: []int{1, 2, 3, 4, 5, 6}}
	saves := 0
	def := benchmarkDef{RunSeconds: 30, EndToEnd: defs}
	def.Workloads = append(def.Workloads, struct {
		Name string `json:"name"`
	}{"evaluate"})
	if err := pairs(l, def, fake, io.Discard, func() error { saves++; return nil }); err != nil {
		t.Fatal(err)
	}
	wantCalls := []string{"P/evaluate/1/30", "C/evaluate/1/30", "C/evaluate/2/30", "P/evaluate/2/30",
		"P/evaluate/3/30", "C/evaluate/3/30", "C/evaluate/4/30", "P/evaluate/4/30",
		"P/evaluate/5/30", "C/evaluate/5/30", "C/evaluate/6/30", "P/evaluate/6/30"}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Errorf("run order %v, want %v", calls, wantCalls)
	}
	if saves != 6 {
		t.Errorf("%d saves, want one per pair", saves)
	}
	wl := l.Workloads[0]
	if wl.Pairs != 2 {
		t.Errorf("%d pairs, want 2 (seeds 2, 3, 5 and 6 each had an unclean run)", wl.Pairs)
	}
	if want := (SideRuns{Runs: 6, FailedRuns: 1, Attempted: 500}); wl.Parent != want {
		t.Errorf("parent %+v, want %+v", wl.Parent, want)
	}
	if want := (SideRuns{Runs: 6, FailedRuns: 2, IncorrectRuns: 1, Attempted: 500, FailedOps: 5}); wl.Change != want {
		t.Errorf("change %+v, want %+v", wl.Change, want)
	}
	m := wl.Metrics[0]
	if !reflect.DeepEqual(m.ParentValues, []float64{101, 104}) || !reflect.DeepEqual(m.ChangeValues, []float64{200, 200}) {
		t.Errorf("values %v / %v", m.ParentValues, m.ChangeValues)
	}
	if m.ChangeWins != 2 || wl.Metrics[1].ChangeWins != 0 {
		t.Errorf("%d and %d wins, want 2 and 0", m.ChangeWins, wl.Metrics[1].ChangeWins)
	}
}

// TestRunWritesLedger drives the command end to end with a fake runner:
// the workloads, the run length and the metrics come from BENCHMARK.json.
func TestRunWritesLedger(t *testing.T) {
	dir := t.TempDir()
	writeDef := func(def string) {
		if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(def), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeDef(`{"run_seconds": 5, "workloads": [{"name": "evaluate"}, {"name": "cluster"}],
		"end_to_end": [{"name": "ops_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.25},
		{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}`)
	out := filepath.Join(dir, "ledger.json")
	var lengths []int
	fake := func(d, workload string, seed, seconds int) ([]byte, error) {
		lengths = append(lengths, seconds)
		return []byte(resultLine(true, 0, float64(seed))), nil
	}
	var log strings.Builder
	args := []string{"-parent", dir, "-change", dir, "-out", out, "-seeds", "1-2"}
	if err := run(args, &log, fake); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Workloads) != 2 || l.Workloads[1].Name != "cluster" || l.Workloads[1].Pairs != 2 ||
		l.Workloads[0].Metrics[0].Bound != 0.25 || !strings.Contains(l.Command, "--seconds 5") {
		t.Errorf("ledger %s", data)
	}
	if !reflect.DeepEqual(lengths, []int{5, 5, 5, 5, 5, 5, 5, 5}) {
		t.Errorf("run lengths %v, want BENCHMARK.json's 5 s for each of 8 runs", lengths)
	}
	if strings.Count(log.String(), "\n") != 8 {
		t.Errorf("log has %d lines, want one per run:\n%s", strings.Count(log.String(), "\n"), log.String())
	}
	if err := run([]string{"-parent", dir}, io.Discard, fake); err == nil {
		t.Error("missing -change and -out accepted")
	}
	for _, flag := range []string{"-seconds", "-workloads"} {
		if err := run(append(args, flag, "1"), io.Discard, fake); err == nil {
			t.Errorf("%s accepted; the run length and the workloads are BENCHMARK.json's", flag)
		}
	}
	writeDef(`{"workloads": [{"name": "evaluate"}], "end_to_end": [{"name": "ops_per_cpu_s", "better": "higher"}]}`)
	if err := run(args, io.Discard, fake); err == nil {
		t.Error("BENCHMARK.json without run_seconds accepted")
	}
}
