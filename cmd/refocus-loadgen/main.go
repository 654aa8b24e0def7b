// Command refocus-loadgen hammers a running refocus-serve instance (or
// cluster coordinator) through the resilient client
// (internal/serveclient): concurrent workers issue evaluate requests
// with retry, backoff and a circuit breaker, then the run reports how
// much resilience machinery it took.
//
// Usage:
//
//	refocus-loadgen -addr http://127.0.0.1:8080
//	                [-mode evaluate|sweep|robustness|optimize]
//	                [-concurrency 8] [-requests 50] [-distinct 8]
//	                [-points 100] [-stream] [-name-prefix loadgen]
//	                [-preset fb] [-network ResNet-18] [-retries 8]
//	                [-seed 1] [-client-timeout 0]
//	                [-severities 0,0.5,1] [-trials 16] [-campaign-seed 1]
//	                [-retrain] [-poll-interval 2s]
//	                [-strategy evolve] [-generations 8] [-population 16]
//	                [-objectives fps,fps_per_watt,fps_per_mm2,pap]
//	                [-area-budget 0] [-power-budget 0] [-yield-trials 0]
//
// In the default evaluate mode each worker sends -requests requests,
// cycling through -distinct design-point variants (distinct names force
// cache misses, keeping the worker pool busy). The process exits
// nonzero if any request failed after all retries — against a chaotic
// or overloaded server, a zero exit means the client hid every
// transient failure, which is exactly what the CI chaos job asserts.
//
// In sweep mode the run submits one batch of -points distinct design
// points to POST /v1/sweep and accounts for every point: failed counts
// points answered with an inline error, lost counts points that never
// came back at all. -stream consumes the NDJSON lane and reports
// first_result_ms — proof the first result arrived while the sweep was
// still running. The kill-a-shard CI gate drives a cluster coordinator
// this way and asserts failed=0 lost=0.
//
// In robustness mode the run submits one campaign to POST /v1/robustness
// (fault-severity grid -severities, -trials Monte Carlo chips per level,
// seeded by -campaign-seed, optionally retraining the reference net with
// -retrain), polls GET /v1/robustness/{id} every -poll-interval, and
// prints the per-severity accuracy/yield/throughput frontier when the
// campaign finishes. Resubmitting the same campaign to a server holding
// its checkpoint resumes it, which the run reports as resumed=N. The
// process exits nonzero unless the campaign reaches "done".
//
// In optimize mode the run submits one design-space search to
// POST /v1/optimize (-strategy over a -generations x -population budget,
// objectives from -objectives, optional -area-budget / -power-budget
// constraints and a -yield-trials Monte Carlo yield axis, seeded by
// -campaign-seed), polls GET /v1/optimize/{id} every -poll-interval,
// and prints the Pareto front when the search finishes. Resubmitting
// the same search to a server holding its checkpoint resumes it
// (resumed=N). The process exits nonzero unless the search reaches
// "done" — a search that ends "failed" or "interrupted" is a failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"refocus/internal/job"
	"refocus/internal/opt"
	"refocus/internal/robust"
	"refocus/internal/serve"
	"refocus/internal/serveclient"
)

// sweepPoints builds n distinct design points on one preset/network.
func sweepPoints(n int, preset, network, prefix string) []serve.EvaluateRequest {
	points := make([]serve.EvaluateRequest, n)
	for i := range points {
		points[i] = serve.EvaluateRequest{
			Preset:    preset,
			Network:   network,
			Overrides: json.RawMessage(fmt.Sprintf(`{"Name": %q}`, fmt.Sprintf("%s-%d", prefix, i))),
		}
	}
	return points
}

// runSweep submits one sweep and accounts for every point. Streamed runs
// consume the NDJSON lane; buffered runs the legacy JSON body.
func runSweep(ctx context.Context, client *serveclient.Client, out io.Writer,
	n int, stream bool, preset, network, prefix, addr string) error {
	req := serve.SweepRequest{Points: sweepPoints(n, preset, network, prefix)}
	got := make([]bool, n)
	failed := 0
	var firstErr error
	start := time.Now()
	var firstResult time.Duration

	record := func(idx int, errText string) {
		if idx >= 0 && idx < n && !got[idx] {
			got[idx] = true
			if firstResult == 0 {
				firstResult = time.Since(start)
			}
		}
		if errText != "" {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("point %d: %s", idx, errText)
			}
		}
	}
	if stream {
		err := client.SweepStream(ctx, req, func(line serve.SweepStreamLine) error {
			record(line.Index, line.Error)
			return nil
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	} else {
		resp, err := client.Sweep(ctx, req)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for i, p := range resp.Points {
			// A buffered response always carries one slot per point; an
			// all-zero slot with no Error would mean the server dropped it.
			record(i, p.Error)
		}
	}
	total := time.Since(start)

	lost := 0
	for _, ok := range got {
		if !ok {
			lost++
		}
	}
	results := n - lost
	fmt.Fprintf(out, "sweep: points=%d results=%d failed=%d lost=%d first_result_ms=%d total_ms=%d streamed=%v\n",
		n, results, failed, lost, firstResult.Milliseconds(), total.Milliseconds(), stream)
	st := client.Stats()
	fmt.Fprintf(out, "client: retries=%d shed=%d breaker_opens=%d breaker_rejects=%d against %s\n",
		st.Retries, st.Shed, st.BreakerOpens, st.BreakerRejects, addr)
	if failed > 0 || lost > 0 {
		return fmt.Errorf("refocus-loadgen: sweep lost %d and failed %d of %d points (first: %v)",
			lost, failed, n, firstErr)
	}
	return nil
}

// parseSeverities parses the -severities list.
func parseSeverities(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("refocus-loadgen: bad -severities entry %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("refocus-loadgen: -severities names no levels")
	}
	return out, nil
}

// awaitJob submits spec to the job endpoint path, reports the submitted
// status through submitted, and polls the job every interval until its
// state (read through head) leaves "running". It returns the last
// status.
func awaitJob[St any](ctx context.Context, client *serveclient.Client, path string, spec any, interval time.Duration,
	head func(St) (string, job.State), submitted func(St)) (St, error) {
	var st St
	if err := client.StartJob(ctx, path, spec, &st); err != nil {
		return st, fmt.Errorf("refocus-loadgen: starting %s job: %w", path, err)
	}
	submitted(st)
	for id, state := head(st); state == job.Running; id, state = head(st) {
		t := time.NewTimer(interval)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return st, fmt.Errorf("refocus-loadgen: canceled while polling %s job %s: %w", path, id, ctx.Err())
		}
		var next St
		if err := client.JobStatus(ctx, path, id, &next); err != nil {
			return st, fmt.Errorf("refocus-loadgen: polling %s job %s: %w", path, id, err)
		}
		st = next
	}
	return st, nil
}

// runRobustness submits one campaign, polls it to completion, and prints
// the frontier as a severity table.
func runRobustness(ctx context.Context, client *serveclient.Client, out io.Writer,
	spec robust.Spec, pollInterval time.Duration, addr string) error {
	start := time.Now()
	st, err := awaitJob(ctx, client, "/v1/robustness", spec, pollInterval,
		func(st robust.StatusResponse) (string, job.State) { return st.ID, st.Status },
		func(st robust.StatusResponse) {
			fmt.Fprintf(out, "robustness: campaign %s submitted (%d trials) against %s\n", st.ID, st.TotalTrials, addr)
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "robustness: status=%s completed=%d/%d executed=%d resumed=%d failed_chips=%d in %.2fs\n",
		st.Status, st.CompletedTrials, st.TotalTrials, st.ExecutedTrials, st.ResumedTrials,
		st.FailedChips, time.Since(start).Seconds())
	if st.Status != robust.StatusDone {
		return fmt.Errorf("refocus-loadgen: campaign %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	fmt.Fprintf(out, "nominal_fps=%.1f clean_accuracy=%.3f\n", st.NominalFPS, st.CleanAccuracy)
	fmt.Fprintf(out, "%-9s %-6s %-11s %-11s %-10s %s\n",
		"severity", "yield", "fleet_fps", "mean_fps", "accuracy", "retrained")
	for _, p := range st.Frontier {
		retrained := "-"
		if p.Retrained != nil {
			retrained = fmt.Sprintf("%.3f", p.Retrained.Mean)
		}
		fmt.Fprintf(out, "%-9.2f %-6.2f %-11.1f %-11.1f %-10.3f %s\n",
			p.Severity, p.Yield, p.FleetFPS, p.FPS.Mean, p.Accuracy.Mean, retrained)
	}
	return nil
}

// parseObjectives parses the -objectives list.
func parseObjectives(s string) ([]opt.Objective, error) {
	var out []opt.Objective
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		out = append(out, opt.Objective(part))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("refocus-loadgen: -objectives names no axes")
	}
	return out, nil
}

// runOptimize submits one design-space search, polls it to completion,
// and prints the Pareto front as a table. A search that ends in any
// terminal state other than "done" is an error — the non-zero exit is
// the contract CI gates rely on.
func runOptimize(ctx context.Context, client *serveclient.Client, out io.Writer,
	spec opt.Spec, pollInterval time.Duration, addr string) error {
	start := time.Now()
	st, err := awaitJob(ctx, client, "/v1/optimize", spec, pollInterval,
		func(st opt.StatusResponse) (string, job.State) { return st.ID, st.Status },
		func(st opt.StatusResponse) {
			fmt.Fprintf(out, "optimize: search %s submitted (strategy=%s budget=%d points) against %s\n",
				st.ID, st.Strategy, st.TotalPoints, addr)
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "optimize: status=%s completed=%d/%d executed=%d resumed=%d invalid=%d infeasible=%d in %.2fs\n",
		st.Status, st.CompletedPoints, st.TotalPoints, st.ExecutedPoints, st.ResumedPoints,
		st.InvalidPoints, st.InfeasiblePoints, time.Since(start).Seconds())
	if st.Status != opt.StatusDone {
		return fmt.Errorf("refocus-loadgen: search %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	fmt.Fprintf(out, "front: %d points\n", len(st.Front))
	fmt.Fprintf(out, "%-22s %-10s %-12s %-12s %-10s %-9s %-9s %s\n",
		"config", "fps", "fps_per_w", "fps_per_mm2", "pap", "power_w", "area_mm2", "yield")
	for _, p := range st.Front {
		yield := "-"
		if p.Metrics.Yield > 0 {
			yield = fmt.Sprintf("%.2f", p.Metrics.Yield)
		}
		fmt.Fprintf(out, "%-22s %-10.1f %-12.2f %-12.2f %-10.3g %-9.2f %-9.1f %s\n",
			p.Config, p.Metrics.FPS, p.Metrics.FPSPerWatt, p.Metrics.FPSPerMM2,
			p.Metrics.PAP, p.Metrics.PowerW, p.Metrics.AreaMM2, yield)
	}
	return nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("refocus-loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "refocus-serve base URL")
	mode := fs.String("mode", "evaluate", "load shape: evaluate (concurrent single points) or sweep (one batch)")
	concurrency := fs.Int("concurrency", 8, "concurrent workers (evaluate mode)")
	requests := fs.Int("requests", 50, "requests per worker (evaluate mode)")
	distinct := fs.Int("distinct", 8, "distinct design-point variants to cycle through (evaluate mode)")
	points := fs.Int("points", 100, "design points per batch (sweep mode)")
	stream := fs.Bool("stream", false, "consume the sweep over the NDJSON streaming lane (sweep mode)")
	namePrefix := fs.String("name-prefix", "loadgen", "design-point name prefix; vary it to defeat result caches (sweep mode)")
	preset := fs.String("preset", "fb", "base preset for every request")
	network := fs.String("network", "ResNet-18", "benchmark network per request")
	retries := fs.Int("retries", 8, "client retries per request")
	seed := fs.Int64("seed", 1, "client backoff-jitter seed")
	clientTimeout := fs.Duration("client-timeout", 0, "HTTP client timeout (0 keeps the client default; raise for long sweeps)")
	severities := fs.String("severities", "0,0.5,1", "comma-separated fault-severity multipliers (robustness mode)")
	trials := fs.Int("trials", 16, "Monte Carlo chips per severity level (robustness mode)")
	campaignSeed := fs.Int64("campaign-seed", 1, "campaign master seed; same seed + spec = same campaign identity (robustness mode)")
	retrain := fs.Bool("retrain", false, "also retrain the reference net through each trial's device model (robustness mode)")
	pollInterval := fs.Duration("poll-interval", 2*time.Second, "status polling interval (robustness and optimize modes)")
	strategy := fs.String("strategy", "", "search strategy: random, evolve or halving; empty means the server default (optimize mode)")
	generations := fs.Int("generations", 0, "search generations; 0 means the server default (optimize mode)")
	population := fs.Int("population", 0, "candidates per generation; 0 means the server default (optimize mode)")
	objectives := fs.String("objectives", "", "comma-separated objective axes; empty means the server default (optimize mode)")
	areaBudget := fs.Float64("area-budget", 0, "area constraint in mm^2; 0 means unconstrained (optimize mode)")
	powerBudget := fs.Float64("power-budget", 0, "power constraint in watts; 0 means unconstrained (optimize mode)")
	yieldTrials := fs.Int("yield-trials", 0, "Monte Carlo chips per candidate for the yield axis; 0 disables it (optimize mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 || *requests < 1 || *distinct < 1 || *points < 1 {
		return fmt.Errorf("refocus-loadgen: -concurrency, -requests, -distinct and -points must be >= 1")
	}
	ccfg := serveclient.Config{
		BaseURL:    *addr,
		MaxRetries: *retries,
		Seed:       *seed,
	}
	if *clientTimeout > 0 {
		ccfg.HTTPClient = &http.Client{Timeout: *clientTimeout}
	}
	client, err := serveclient.New(ccfg)
	if err != nil {
		return err
	}
	switch *mode {
	case "sweep":
		return runSweep(ctx, client, out, *points, *stream, *preset, *network, *namePrefix, *addr)
	case "robustness":
		levels, err := parseSeverities(*severities)
		if err != nil {
			return err
		}
		spec := robust.Spec{
			Preset:     *preset,
			Network:    *network,
			Severities: levels,
			Trials:     *trials,
			Seed:       *campaignSeed,
			Retrain:    *retrain,
		}
		return runRobustness(ctx, client, out, spec, *pollInterval, *addr)
	case "optimize":
		spec := opt.Spec{
			Preset:        *preset,
			Network:       *network,
			Strategy:      *strategy,
			Generations:   *generations,
			Population:    *population,
			Seed:          *campaignSeed,
			AreaBudgetMM2: *areaBudget,
			PowerBudgetW:  *powerBudget,
			YieldTrials:   *yieldTrials,
		}
		if *objectives != "" {
			axes, err := parseObjectives(*objectives)
			if err != nil {
				return err
			}
			spec.Objectives = axes
		}
		return runOptimize(ctx, client, out, spec, *pollInterval, *addr)
	case "evaluate":
		// fall through to the concurrent single-point load below
	default:
		return fmt.Errorf("refocus-loadgen: unknown -mode %q (evaluate|sweep|robustness|optimize)", *mode)
	}

	start := time.Now()
	var failed atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < *requests; i++ {
				variant := fmt.Sprintf(`{"Name": "loadgen-%d"}`, (w**requests+i)%*distinct)
				req := serve.EvaluateRequest{
					Preset:    *preset,
					Network:   *network,
					Overrides: json.RawMessage(variant),
				}
				if _, err := client.Evaluate(ctx, req); err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(w)
	}
	wg.Wait()

	total := int64(*concurrency) * int64(*requests)
	st := client.Stats()
	fmt.Fprintf(out, "loadgen: %d requests in %.2fs against %s\n", total, time.Since(start).Seconds(), *addr)
	fmt.Fprintf(out, "failed=%d retries=%d shed=%d breaker_opens=%d breaker_rejects=%d\n",
		failed.Load(), st.Retries, st.Shed, st.BreakerOpens, st.BreakerRejects)
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("refocus-loadgen: %d/%d requests failed after retries (first: %v)", n, total, firstErr.Load())
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "refocus-loadgen: %v\n", err)
		os.Exit(1)
	}
}
