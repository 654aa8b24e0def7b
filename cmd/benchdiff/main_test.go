package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: refocus/internal/dsp
BenchmarkFFTPlannedPow2_256-8   	  300000	      4000 ns/op
BenchmarkFFTPlannedPow2_256-8   	  300000	      3900 ns/op
BenchmarkFFTPlannedPow2_256-8   	  300000	      4100 ns/op
BenchmarkConvFFT256x9-8         	    1000	   1200000 ns/op	  12 B/op	  3 allocs/op
PASS
ok  	refocus/internal/dsp	1.234s
`

func TestParseBenchTakesMinAcrossRepeats(t *testing.T) {
	run, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	got := run.NsPerOp
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if got["BenchmarkFFTPlannedPow2_256"] != 3900 {
		t.Errorf("min ns/op = %g, want 3900 (and the -8 suffix stripped)", got["BenchmarkFFTPlannedPow2_256"])
	}
	if got["BenchmarkConvFFT256x9"] != 1.2e6 {
		t.Errorf("ConvFFT ns/op = %g, want 1.2e6", got["BenchmarkConvFFT256x9"])
	}
	if b, a := run.BytesPerOp["BenchmarkConvFFT256x9"], run.AllocsPerOp["BenchmarkConvFFT256x9"]; b != 12 || a != 3 {
		t.Errorf("ConvFFT = %g B/op, %g allocs/op, want 12 and 3", b, a)
	}
	if _, ok := run.AllocsPerOp["BenchmarkFFTPlannedPow2_256"]; ok || len(run.BytesPerOp) != 1 {
		t.Errorf("memory figures invented for a line without them: %v %v", run.BytesPerOp, run.AllocsPerOp)
	}
}

func TestParseBenchRejectsEmptyInput(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok x 0.1s\n")); err == nil {
		t.Fatal("expected an error for input with no benchmark lines")
	}
}

func TestCompareFlagsRegressionsAndMissing(t *testing.T) {
	baseline := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkGone": 50}
	current := map[string]float64{"BenchmarkA": 124, "BenchmarkB": 126, "BenchmarkNew": 10}
	var buf strings.Builder
	regressed, missing := compare(baseline, current, 0.25, &buf)
	if len(regressed) != 1 || regressed[0] != "BenchmarkB" {
		t.Errorf("regressed = %v, want [BenchmarkB] (A is +24%%, inside tolerance)", regressed)
	}
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Errorf("missing = %v, want [BenchmarkGone]", missing)
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "MISSING") || !strings.Contains(out, "new") {
		t.Errorf("table should mark REGRESSED, MISSING and new rows:\n%s", out)
	}
}

// TestUpdateThenCompareRoundTrip drives the CLI end to end: -update
// writes a baseline, an identical run passes, and a 2x slowdown fails.
func TestUpdateThenCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_BASELINE.json")
	input := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(input, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-update", "-baseline", baseline, "-input", input}, nil, &out); err != nil {
		t.Fatalf("-update: %v", err)
	}
	if err := run([]string{"-baseline", baseline, "-input", input}, nil, &out); err != nil {
		t.Fatalf("identical run should pass: %v", err)
	}

	slow := strings.ReplaceAll(sampleBench, "4000 ns/op", "9000 ns/op")
	slow = strings.ReplaceAll(slow, "3900 ns/op", "8900 ns/op")
	slow = strings.ReplaceAll(slow, "4100 ns/op", "9100 ns/op")
	if err := os.WriteFile(input, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	prOut := filepath.Join(dir, "BENCH_PR.json")
	err := run([]string{"-baseline", baseline, "-input", input, "-out", prOut}, nil, &out)
	if err == nil {
		t.Fatal("2x slowdown should fail the gate")
	}
	if !strings.Contains(err.Error(), "1 regressed") {
		t.Errorf("error = %v, want exactly one regression", err)
	}
	data, err := os.ReadFile(prOut)
	if err != nil {
		t.Fatalf("-out artifact should be written even on failure: %v", err)
	}
	var artifact baselineFile
	if err := json.Unmarshal(data, &artifact); err != nil {
		t.Fatal(err)
	}
	if artifact.NsPerOp["BenchmarkFFTPlannedPow2_256"] != 8900 || artifact.AllocsPerOp["BenchmarkConvFFT256x9"] != 3 || artifact.BytesPerOp["BenchmarkConvFFT256x9"] != 12 {
		t.Errorf("-out artifact lacks the run's figures: %s", data)
	}
}

func TestMissingBaselineFileIsAnError(t *testing.T) {
	input := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(input, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-baseline", filepath.Join(t.TempDir(), "nope.json"), "-input", input}, nil, &out); err == nil {
		t.Fatal("absent baseline must fail, not silently pass")
	}
}
