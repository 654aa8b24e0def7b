// Command benchpairs runs the repository benchmark in alternating pairs on
// two checkouts of the repository, a parent and a change, and writes one
// JSON ledger file with, per workload and end-to-end metric, both sides'
// median and quartiles, the change's wins over the pairs, and each side's
// failed and incorrect runs.
//
// Usage (from any directory; each checkout is a repository root):
//
//	benchpairs -parent DIR -change DIR -out BENCH_<n>.json [-seeds 1-10]
//
// The change checkout's BENCHMARK.json fixes the rest: every workload it
// lists is run, each run lasts its run_seconds, and its end-to-end
// metrics, with the direction that is better, are the ones recorded.
// Pair N runs `bash perfbench/run.sh --workload W --seed N --seconds S
// --trace 0` in both checkouts, one after the other: the parent first on
// odd seeds, the change first on even ones, so neither side always runs
// on the warmer or the quieter machine. Only clean runs give values: a
// run whose result line is missing or lacks an end-to-end metric, that
// printed "correct": false or that reported failed operations is counted
// against its side and drops its pair. The file is rewritten after every
// pair, so an interrupted run keeps the pairs it finished.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkDef is the part of BENCHMARK.json the ledger needs.
type benchmarkDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the last line a perfbench run prints.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
	} `json:"metrics"`
}

// Ledger is the file benchpairs writes.
type Ledger struct {
	// Command is the run each side makes per pair, W and N filled in.
	Command string
	// Parent and Change are the two checkouts' directories.
	Parent, Change string
	// Seeds are the pairs' seeds, in run order; odd seeds ran the parent
	// first.
	Seeds     []int
	Workloads []WorkloadLedger
}

// WorkloadLedger is one workload's pairs.
type WorkloadLedger struct {
	Name string
	// Pairs counts the pairs whose two runs were both clean.
	Pairs          int
	Parent, Change SideRuns
	Metrics        []MetricLedger
}

// SideRuns counts one side's runs of a workload. A failed run printed no
// complete result line (one with every end-to-end metric) or reported
// failed operations; an incorrect run printed "correct": false.
type SideRuns struct {
	Runs, FailedRuns, IncorrectRuns int
	// Attempted and FailedOps sum the operations the runs reported.
	Attempted, FailedOps int64
}

// MetricLedger is one end-to-end metric over a workload's pairs.
type MetricLedger struct {
	Name, Unit, Better string
	Bound              float64
	Parent, Change     Summary
	// ChangePct is the change's median relative to the parent's, in
	// percent; ParentIQR is the parent's Q3-Q1, the spread a median gain
	// must exceed to count as resolved.
	ChangePct, ParentIQR float64
	// ChangeWins counts the pairs in which the change's value is better
	// (strictly) than the parent's.
	ChangeWins int
	// ParentValues and ChangeValues are the per-pair values, in Seeds
	// order (pairs with a failed or incorrect run are left out).
	ParentValues, ChangeValues []float64
}

// Summary is the median and quartiles of one side's values.
type Summary struct {
	Median, Q1, Q3 float64
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks (the default of R and NumPy).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summarize returns the median and quartiles of values.
func summarize(values []float64) Summary {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return Summary{Median: quantile(sorted, 0.5), Q1: quantile(sorted, 0.25), Q3: quantile(sorted, 0.75)}
}

// wins counts the pairs in which change beats parent in the direction
// better ("higher" or "lower"); ties are not wins.
func wins(parent, change []float64, better string) int {
	n := 0
	for i := range parent {
		if better == "higher" && change[i] > parent[i] || better == "lower" && change[i] < parent[i] {
			n++
		}
	}
	return n
}

// metricLedger summarizes one metric over index-aligned pair values.
func metricLedger(def metricDef, parent, change []float64) MetricLedger {
	m := MetricLedger{
		Name: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		Parent: summarize(parent), Change: summarize(change),
		ChangeWins:   wins(parent, change, def.Better),
		ParentValues: parent, ChangeValues: change,
	}
	m.ParentIQR = m.Parent.Q3 - m.Parent.Q1
	if m.Parent.Median != 0 {
		m.ChangePct = 100 * (m.Change.Median - m.Parent.Median) / m.Parent.Median
	}
	return m
}

// parseSeeds reads "A-B" or a comma-separated list of seeds.
func parseSeeds(s string) ([]int, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a > b {
			return nil, fmt.Errorf("benchpairs: bad seed range %q", s)
		}
		var seeds []int
		for n := a; n <= b; n++ {
			seeds = append(seeds, n)
		}
		return seeds, nil
	}
	var seeds []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("benchpairs: bad seed %q", f)
		}
		seeds = append(seeds, n)
	}
	return seeds, nil
}

// parseResult reads the JSON object on the last non-empty line of a
// run's standard output, which must carry a value for every end-to-end
// metric of defs.
func parseResult(out []byte, defs []metricDef) (*runResult, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("no result line (last line %.80q)", last)
	}
	for _, d := range defs {
		if res.Metrics[d.Name].Value == nil {
			return nil, fmt.Errorf("result line lacks end-to-end metric %q", d.Name)
		}
	}
	return &res, nil
}

// runner runs one side's benchmark; tests replace it.
type runner func(dir, workload string, seed, seconds int) ([]byte, error)

// runPerfbench runs perfbench in dir and returns its standard output.
// Standard error passes through to the caller's.
func runPerfbench(dir, workload string, seed, seconds int) ([]byte, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// side is one checkout's runs of a workload.
type side struct {
	dir, label string
	runs       SideRuns
	// values are the last run's end-to-end metric values in the order of
	// the metric definitions, nil unless that run was clean.
	values []float64
}

// record runs the side once and counts the outcome.
func (s *side) record(run runner, defs []metricDef, workload string, seed, seconds int, log io.Writer) {
	s.runs.Runs++
	s.values = nil
	out, err := run(s.dir, workload, seed, seconds)
	res, perr := parseResult(out, defs)
	if perr != nil {
		s.runs.FailedRuns++
		fmt.Fprintf(log, "%s %s seed %d: %v (%v)\n", workload, s.label, seed, perr, err)
		return
	}
	if res.Failed > 0 {
		s.runs.FailedRuns++
	}
	if !res.Correct {
		s.runs.IncorrectRuns++
	}
	s.runs.Attempted += res.Attempted
	s.runs.FailedOps += res.Failed
	fmt.Fprintf(log, "%s %s seed %d: correct %v, %d of %d operations failed\n",
		workload, s.label, seed, res.Correct, res.Failed, res.Attempted)
	if res.Correct && res.Failed == 0 {
		s.values = make([]float64, len(defs))
		for i, d := range defs {
			s.values[i] = *res.Metrics[d.Name].Value
		}
	}
}

// pairs runs every workload's pairs into l, calling save after each pair.
func pairs(l *Ledger, def benchmarkDef, run runner, log io.Writer, save func() error) error {
	defs := def.EndToEnd
	for _, bw := range def.Workloads {
		w := bw.Name
		l.Workloads = append(l.Workloads, WorkloadLedger{Name: w})
		wl := &l.Workloads[len(l.Workloads)-1]
		parent := &side{dir: l.Parent, label: "parent"}
		change := &side{dir: l.Change, label: "change"}
		values := make([][2][]float64, len(defs))
		for _, seed := range l.Seeds {
			order := []*side{parent, change}
			if seed%2 == 0 {
				order = []*side{change, parent}
			}
			for _, s := range order {
				s.record(run, defs, w, seed, def.RunSeconds, log)
			}
			if parent.values != nil && change.values != nil {
				wl.Pairs++
				for i := range defs {
					values[i][0] = append(values[i][0], parent.values[i])
					values[i][1] = append(values[i][1], change.values[i])
				}
			}
			wl.Parent, wl.Change, wl.Metrics = parent.runs, change.runs, nil
			for i, d := range defs {
				wl.Metrics = append(wl.Metrics, metricLedger(d, values[i][0], values[i][1]))
			}
			if err := save(); err != nil {
				return err
			}
		}
	}
	return nil
}

func run(args []string, stdout io.Writer, run runner) error {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "checkout of the parent commit")
	changeDir := fs.String("change", "", "checkout of the change")
	out := fs.String("out", "", "ledger file to write")
	seedSpec := fs.String("seeds", "1-10", "seed range A-B or comma-separated seeds; one pair per seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" || *out == "" {
		return errors.New("benchpairs: -parent, -change and -out are required")
	}
	seeds, err := parseSeeds(*seedSpec)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(*changeDir, "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("benchpairs: %w", err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("benchpairs: BENCHMARK.json: %w", err)
	}
	if def.RunSeconds <= 0 || len(def.Workloads) == 0 || len(def.EndToEnd) == 0 {
		return errors.New("benchpairs: BENCHMARK.json must set run_seconds and list workloads and end-to-end metrics")
	}
	l := &Ledger{
		Command: fmt.Sprintf("bash perfbench/run.sh --workload W --seed N --seconds %d --trace 0", def.RunSeconds),
		Parent:  *parentDir, Change: *changeDir, Seeds: seeds,
	}
	save := func() error {
		data, err := json.MarshalIndent(l, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	return pairs(l, def, run, stdout, save)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, runPerfbench); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
