package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files")

func TestRunSingleExhibit(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-only", "Table 5"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table 5") || !strings.Contains(b.String(), "3.86") {
		t.Errorf("Table 5 output wrong:\n%s", b.String())
	}
}

// TestRunAllExhibits byte-compares the full default output against the
// committed golden (run with -update to regenerate after an intentional
// model change), so any drift in any exhibit is a reviewed diff.
func TestRunAllExhibits(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates everything")
	}
	var b strings.Builder
	if err := run(nil, &b); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"Section 2.2", "Table 4", "Figure 11", "Section 7.5"} {
		if !strings.Contains(b.String(), id) {
			t.Errorf("missing exhibit %s", id)
		}
	}
	path := filepath.Join("testdata", "golden-all-exhibits.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		t.Errorf("output differs from %s from line %d on (rerun with -update after an intentional change)", path, i+1)
	}
}

func TestRunRejectsUnknownExhibit(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-only", "Table 99"}, &b); err == nil {
		t.Error("unknown exhibit accepted")
	}
}
