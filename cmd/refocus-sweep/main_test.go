package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/nn"
)

func TestAllSweepsProduceTables(t *testing.T) {
	for _, sweep := range []string{"m", "reuse", "lambda", "rfcu", "alpha"} {
		var b strings.Builder
		if err := run([]string{"-sweep", sweep}, &b); err != nil {
			t.Fatalf("sweep %s: %v", sweep, err)
		}
		if lines := strings.Count(b.String(), "\n"); lines < 4 {
			t.Errorf("sweep %s produced only %d lines", sweep, lines)
		}
	}
}

func TestSweepFFVariant(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-sweep", "m", "-buffer", "ff"}, &b); err != nil {
		t.Fatal(err)
	}
}

func TestSweepRejectsUnknown(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-sweep", "temperature"}, &b); err == nil {
		t.Error("unknown sweep accepted")
	}
}

func TestSweepList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ReFOCUS-FB") || !strings.Contains(b.String(), "networks:") {
		t.Errorf("-list output incomplete:\n%s", b.String())
	}
}

func TestSweepConfigFileBase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(`{"Base": "fb", "Name": "FB-λ3", "NLambda": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-sweep", "rfcu", "-config-file", path}, &b); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines < 4 {
		t.Errorf("config-file sweep produced only %d lines", lines)
	}
}

func TestSweepRejectsBadInputs(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-buffer", "tpu"}, &b); err == nil {
		t.Error("unknown base preset accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"Base": "fb", "Reuses": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config-file", path}, &b); err == nil {
		t.Error("invalid design point accepted")
	}
}

// TestSweepTransformerWorkload: a transformer workload sweeps through
// the same design-space machinery as the Table 4 CNNs.
func TestSweepTransformerWorkload(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-sweep", "lambda", "-network", "BERT-base"}, &b); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines < 4 {
		t.Errorf("transformer sweep produced only %d lines:\n%s", lines, b.String())
	}
}

func TestSweepNetworkFile(t *testing.T) {
	spec := `{
  "Name": "tiny-fc",
  "Layers": [
    {"Kind": "fc", "Name": "fc1", "In": 64, "Out": 64, "Tokens": 16, "Repeat": 1}
  ]
}`
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-sweep", "rfcu", "-network-file", path}, &b); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines < 4 {
		t.Errorf("-network-file sweep produced only %d lines", lines)
	}
}

func TestSweepRejectsUnknownNetwork(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-sweep", "m", "-network", "LeNet"}, &b)
	if err == nil {
		t.Fatal("unknown network accepted")
	}
	if !strings.Contains(err.Error(), "BERT-base") {
		t.Errorf("miss error does not list valid names: %v", err)
	}
}

// TestReuseSweepsTheBase: the reuse and alpha sweeps vary the resolved
// base design, not the FB preset: an 8-RFCU FB base prints its own FPS/W
// at its own R=15, and a base with R=7 prices the alpha sweep at R=7.
func TestReuseSweepsTheBase(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sweep := func(args ...string) string {
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return b.String()
	}

	fb8 := arch.FB()
	fb8.NRFCU = 8
	want := fmt.Sprintf("%.0f", arch.GeoMean(arch.MustEvaluateAll(fb8, nn.Table4Networks()), arch.MetricFPSPerWatt))
	got := sweep("-sweep", "reuse", "-config-file", write("fb8.json", `{"Base":"fb","NRFCU":8}`))
	if got == sweep("-sweep", "reuse") {
		t.Fatal("an 8-RFCU base printed the default table")
	}
	var row string
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "15 ") {
			row = line
		}
	}
	if !strings.HasSuffix(row, " "+want) {
		t.Errorf("R=15 row %q, want the 8-RFCU base's FPS/W %s", row, want)
	}

	alpha := sweep("-sweep", "alpha", "-config-file", write("r7.json", `{"Base":"fb","Reuses":7}`))
	if !strings.Contains(alpha, "(R=7)") || alpha == sweep("-sweep", "alpha") {
		t.Errorf("alpha sweep on an R=7 base:\n%s", alpha)
	}
}

// TestReuseSweepsRejectNonFeedbackBase: a base without a feedback buffer
// has no reuse count or split ratio to sweep, and the error names it.
func TestReuseSweepsRejectNonFeedbackBase(t *testing.T) {
	for _, sweep := range []string{"reuse", "alpha"} {
		var b strings.Builder
		err := run([]string{"-sweep", sweep, "-buffer", "ff"}, &b)
		if err == nil || !strings.Contains(err.Error(), "ReFOCUS-FF") {
			t.Errorf("-sweep %s -buffer ff: err %v, want a rejection naming ReFOCUS-FF", sweep, err)
		}
	}
}
