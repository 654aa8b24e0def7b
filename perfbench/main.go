// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed, drives the program in-process through its
// public APIs, checks every output, and prints every metric by name and
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// first repeats the untraced measurement, then measures again with spans
// recorded around every call into a layer, and prints the per-layer set,
// a per-layer self-time table and a Chrome trace under .bench_build/out.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload evaluate|cluster|conv-engine --seed N --seconds S --trace 0|1
//
// See perfbench/README.md for why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// outDir holds everything a run writes: scratch stores, checkpoints, the
// Chrome trace and the self-time table. It is inside the checkout and
// ignored by git.
const outDir = ".bench_build/out"

// A run builds its workload from scratch at least setupRepeats times and
// until setupSpan has passed; setup_s is the fastTime of those set-ups.
const (
	setupRepeats = 5
	setupSpan    = 3 * time.Second
)

// fastShare sets the quantile every end-to-end figure takes over the
// windows (set-ups, time windows, rounds or calls) a run measures it in:
// the fastest tenth. The shared VM the benchmark was defined on switches
// between a fast state and one up to 2x slower for seconds at a time;
// runs had fast windows, but the share of slow ones swung the median
// window by 50% between runs (README.md, "Noise").
const fastShare = 0.1

// fastTime is the fastShare-quantile of per-window times (lower is
// better).
func fastTime(times []float64) float64 { return quantile(times, fastShare) }

// fastRate is the (1-fastShare)-quantile of per-window rates (higher is
// better).
func fastRate(rates []float64) float64 { return quantile(rates, 1-fastShare) }

// phase counts one phase's operations. Every operation is either
// succeeded or failed; a mismatch against the expected output is a
// failure too.
type phase struct {
	name      string
	attempted atomic.Int64
	failed    atomic.Int64
}

// done records one operation's outcome.
func (p *phase) done(ok bool) {
	p.attempted.Add(1)
	if !ok {
		p.failed.Add(1)
	}
}

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     int64
	length   time.Duration
	traced   bool
	out      io.Writer

	// e2e and layer hold measured values by metric name.
	e2e   map[string]float64
	layer map[string]float64

	phases []*phase
	// mismatches lists outputs that disagreed with their reference;
	// load-generator goroutines append to it under mu.
	mu         sync.Mutex
	mismatches []string
	// notes are extra lines printed before the result.
	notes []string
}

// phase returns (creating on first use) the named phase counter.
func (r *run) phase(name string) *phase {
	for _, p := range r.phases {
		if p.name == name {
			return p
		}
	}
	p := &phase{name: name}
	r.phases = append(r.phases, p)
	return p
}

// mismatch records an output that disagreed with its reference.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload; README.md says why each exists.
// setup builds everything the timed part needs (servers, inputs, warm
// caches) and returns the instance to measure.
type workload struct {
	name  string
	setup func(r *run) (*instance, error)
}

// instance is one set-up copy of a workload.
type instance struct {
	// measure runs the timed part for the run length and stores every
	// metric it measured in m, end-to-end and per-layer alike; rec is nil
	// on untraced passes.
	measure func(rec *recorder, m map[string]float64) error
	// close stops the instance's servers and removes its scratch files.
	close func()
}

var workloads = []workload{evaluateWorkload, clusterWorkload, convWorkload}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// benchMain runs one invocation, printing to out, and returns the exit
// code: 0 when every operation succeeded and every output was correct.
func benchMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: evaluate, cluster or conv-engine")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 30, "measured length of the run in seconds (BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload evaluate|cluster|conv-engine, --seconds > 0, --trace 0|1\n")
		return 2
	}
	r := &run{
		workload: wl.name,
		seed:     *seed,
		length:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		out:      out,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	res, err := r.execute(wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

// metricResult is one printed metric.
type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute sets the workload up repeatedly (timing each set-up), keeps the
// last copy, measures, and assembles the result.
func (r *run) execute(wl *workload) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", outDir, err)
	}
	// The whole run, servers and load generator alike, runs on one P.
	// With two, Go's scheduler hands goroutines between the shared VM's
	// two vCPUs, and what a hand-off costs swung a whole run's figures by
	// up to 40%. The heap may grow by half its live size between
	// collections instead of doubling: at the default, how far it grew
	// after a collection that ended while a large transient was live
	// moved conv-engine's peak_rss_mb between 32.9 and 36.7 MB over four
	// seeds, against 23.8-25.3 MB at 50 (README.md, "Noise").
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	// Each set-up after the first starts once the previous copy is closed
	// and collected, so it does not pay for collecting that copy, and the
	// measurement starts once the last set-up's garbage is collected.
	var setups []float64
	var inst *instance
	start := processStart
	for i := 0; i < setupRepeats || time.Since(processStart) < setupSpan; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
			start = time.Now()
		}
		var err error
		inst, err = wl.setup(r)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	r.e2e["setup_s"] = fastTime(setups)
	runtime.GC()

	untraced := map[string]float64{}
	stopRSS := make(chan struct{})
	rss := sampleRSS(stopRSS)
	err := inst.measure(nil, untraced)
	close(stopRSS)
	if err != nil {
		return nil, err
	}
	r.e2e["peak_rss_mb"] = quantile(<-rss, 0.9)
	for k, v := range untraced {
		if isEndToEnd(k) {
			r.e2e[k] = v
		} else {
			r.layer[k] = v
		}
	}
	modelMetrics(r.layer)
	if r.traced {
		rec := newRecorder()
		traced := map[string]float64{}
		if err := inst.measure(rec, traced); err != nil {
			return nil, err
		}
		// Rates and latencies come from the untraced pass; what only
		// spans can show comes from the traced one.
		for k, v := range traced {
			if !isEndToEnd(k) && !strings.HasPrefix(k, "e2e.") {
				r.layer[k] = v
			}
		}
		if base := r.e2e["p50_ms"]; base > 0 {
			r.layer["obs.trace_overhead_pct"] = (traced["p50_ms"]/base - 1) * 100
		}
		stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", r.workload, r.seed))
		table, err := rec.export(stem+".trace.json", stem+".selftime.txt")
		if err != nil {
			return nil, err
		}
		r.notes = append(r.notes, table)
	}

	var attempted, failed int64
	var phaseLines []string
	for _, p := range r.phases {
		a, f := p.attempted.Load(), p.failed.Load()
		attempted += a
		failed += f
		phaseLines = append(phaseLines, fmt.Sprintf("  %-22s attempted %8d  succeeded %8d  failed %d", p.name, a, a-f, f))
	}
	r.layer["e2e.failed_ratio"] = ratio(float64(failed), float64(attempted))
	fmt.Fprintf(r.out, "perfbench %s seed=%d seconds=%g trace=%v\n", r.workload, r.seed, r.length.Seconds(), r.traced)
	fmt.Fprintln(r.out, "phases:")
	for _, l := range phaseLines {
		fmt.Fprintln(r.out, l)
	}
	for _, m := range r.mismatches {
		fmt.Fprintln(r.out, "MISMATCH:", m)
	}
	printModel(r.out, r.layer)
	for _, n := range r.notes {
		fmt.Fprintln(r.out, n)
	}

	res := &result{
		Correct:   len(r.mismatches) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricResult{},
	}
	if attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	set, values := endToEnd, r.e2e
	if r.traced {
		set, values = perLayer(), r.layer
	}
	for _, d := range set {
		v, ok := values[d.name]
		if !ok {
			if r.traced {
				v = 0 // a layer this workload does not exercise did no work
			} else {
				return nil, fmt.Errorf("metric %s was not measured", d.name)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if !r.traced && v <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s is %v; it must be positive", d.name, v)
		}
		res.Metrics[d.name] = metricResult{Value: v, Unit: d.unit}
	}
	fmt.Fprintln(r.out, "metrics:")
	for _, d := range set {
		fmt.Fprintf(r.out, "  %-40s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	return res, nil
}

// rssEvery is how often the untraced measurement samples the resident
// set size.
const rssEvery = 10 * time.Millisecond

// sampleRSS samples the process's resident set size, in-process servers
// included, every rssEvery until stop is closed, then sends the samples in
// MB. peak_rss_mb is their 90th percentile: the high-water mark since
// process start swung with when collections happened to run, even in
// set-up (README.md, "Noise").
func sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var samples []float64
		for {
			if mb, err := rssMB(); err == nil {
				samples = append(samples, mb)
			}
			select {
			case <-stop:
				out <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// rssMB reads the process's resident set size from /proc/self/statm.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// cpuTime is the process's user plus system CPU time so far, in-process
// servers included. Time the hypervisor steals from the VM is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
