// Command benchdiff is the CI benchmark-regression gate: it parses `go
// test -bench` output, reduces each benchmark to its best (minimum)
// ns/op across -count repeats, and compares that against a committed
// baseline JSON with a relative tolerance.
//
// Usage:
//
//	go test -bench . -benchtime 3x -count 5 -run '^$' ./... > bench.txt
//	benchdiff -baseline BENCH_BASELINE.json -input bench.txt \
//	          [-out BENCH_PR.json] [-tolerance 0.25]
//	benchdiff -update -baseline BENCH_BASELINE.json -input bench.txt
//
// The minimum across repeats is the comparison statistic because it is
// the least noisy summary of a benchmark's floor on a shared runner:
// scheduling interference only ever adds time. A benchmark regresses
// when its current minimum exceeds baseline*(1+tolerance); benchdiff
// prints a table of every benchmark, exits 1 if anything regressed, and
// writes the current numbers to -out so CI can archive them. Benchmarks
// present only in the PR are reported as new (never a failure);
// benchmarks that disappeared from the run fail the gate so a renamed or
// deleted benchmark forces a deliberate -update. -update rewrites the
// baseline from the current run instead of comparing. When the run
// reported B/op and allocs/op (-benchmem or b.ReportAllocs), -out and
// -update carry their minimums too, as a report: the gate reads ns/op
// alone.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

// benchLine matches one `go test -bench` result line, capturing the
// benchmark name (with the -GOMAXPROCS suffix stripped), the iteration
// count, the ns/op figure and, when reported, the B/op and allocs/op
// figures (which follow any custom metrics).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:.*\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// baselineFile is the committed BENCH_BASELINE.json shape.
type baselineFile struct {
	// Regenerate documents the command that refreshes the file.
	Regenerate string
	// NsPerOp maps benchmark name (no -GOMAXPROCS suffix) to the minimum
	// ns/op observed across repeats.
	NsPerOp map[string]float64
	// BytesPerOp and AllocsPerOp map the benchmarks that reported them to
	// the minimum B/op and allocs/op across repeats.
	BytesPerOp  map[string]float64 `json:",omitempty"`
	AllocsPerOp map[string]float64 `json:",omitempty"`
}

// parseBench reduces `go test -bench` output to the minimum of each
// figure per benchmark.
func parseBench(r io.Reader) (baselineFile, error) {
	out := baselineFile{NsPerOp: map[string]float64{}, BytesPerOp: map[string]float64{}, AllocsPerOp: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		for i, figure := range []map[string]float64{out.NsPerOp, out.BytesPerOp, out.AllocsPerOp} {
			text := m[3+i]
			if text == "" {
				continue // no -benchmem figures on this line
			}
			var v float64
			if _, err := fmt.Sscanf(text, "%g", &v); err != nil {
				return baselineFile{}, fmt.Errorf("benchdiff: bad figure %q on line %q", text, sc.Text())
			}
			if prev, ok := figure[m[1]]; !ok || v < prev {
				figure[m[1]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return baselineFile{}, fmt.Errorf("benchdiff: reading bench output: %w", err)
	}
	if len(out.NsPerOp) == 0 {
		return baselineFile{}, fmt.Errorf("benchdiff: no benchmark results found in input")
	}
	return out, nil
}

// compare prints the per-benchmark table and returns the regressed and
// missing benchmark names.
func compare(baseline, current map[string]float64, tolerance float64, w io.Writer) (regressed, missing []string) {
	names := make([]string, 0, len(baseline)+len(current))
	for n := range baseline {
		names = append(names, n)
	}
	for n := range current {
		if _, ok := baseline[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-44s %12s %12s %8s\n", "benchmark", "base ns/op", "now ns/op", "delta")
	for _, n := range names {
		base, inBase := baseline[n]
		now, inCur := current[n]
		switch {
		case !inCur:
			fmt.Fprintf(w, "%-44s %12.1f %12s %8s  MISSING\n", n, base, "-", "-")
			missing = append(missing, n)
		case !inBase:
			fmt.Fprintf(w, "%-44s %12s %12.1f %8s  new\n", n, "-", now, "-")
		default:
			delta := now/base - 1
			mark := ""
			if now > base*(1+tolerance) {
				mark = "  REGRESSED"
				regressed = append(regressed, n)
			}
			fmt.Fprintf(w, "%-44s %12.1f %12.1f %+7.1f%%%s\n", n, base, now, 100*delta, mark)
		}
	}
	return regressed, missing
}

// writeJSON writes the baseline-shaped file atomically enough for CI.
func writeJSON(path string, f baselineFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_BASELINE.json", "committed baseline JSON to compare against (or rewrite with -update)")
	input := fs.String("input", "", "`go test -bench` output to parse (default stdin)")
	outPath := fs.String("out", "", "also write the current run's numbers to this JSON file")
	tolerance := fs.Float64("tolerance", 0.25, "allowed relative ns/op growth before a benchmark counts as regressed")
	update := fs.Bool("update", false, "rewrite -baseline from the current run instead of comparing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("benchdiff: unexpected arguments %v", fs.Args())
	}
	if *tolerance < 0 {
		return fmt.Errorf("benchdiff: -tolerance must be >= 0, got %g", *tolerance)
	}
	in := stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return fmt.Errorf("benchdiff: %w", err)
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in)
	if err != nil {
		return err
	}
	current.Regenerate = "go test -bench . -benchtime 3x -count 5 -benchmem -run '^$' ./internal/dsp ./internal/jtc ./internal/arch ./internal/cluster ./internal/opt | go run ./cmd/benchdiff -update"
	if *update {
		if err := writeJSON(*baselinePath, current); err != nil {
			return fmt.Errorf("benchdiff: writing baseline: %w", err)
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %d benchmarks to %s\n", len(current.NsPerOp), *baselinePath)
		return nil
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("benchdiff: reading baseline: %w", err)
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchdiff: parsing baseline %s: %w", *baselinePath, err)
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, current); err != nil {
			return fmt.Errorf("benchdiff: writing %s: %w", *outPath, err)
		}
	}
	regressed, missing := compare(base.NsPerOp, current.NsPerOp, *tolerance, stdout)
	if len(regressed) > 0 || len(missing) > 0 {
		return fmt.Errorf("benchdiff: %d regressed, %d missing (tolerance %.0f%%; refresh with -update if intended)",
			len(regressed), len(missing), 100**tolerance)
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmarks within %.0f%% of baseline\n", len(current.NsPerOp), 100**tolerance)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
