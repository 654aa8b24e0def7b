// This file is the cluster workload: one client against a coordinator
// over three worker shards sharing one DiskStore directory, running a
// streamed sweep of distinct points and then a seeded design-space
// search with a yield axis.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"refocus/internal/arch"
	"refocus/internal/cluster"
	"refocus/internal/obs"
	"refocus/internal/opt"
	"refocus/internal/serve"
	"refocus/internal/serveclient"
)

var clusterWorkload = workload{
	name:  "cluster",
	setup: setupCluster,
}

const (
	// shards is the worker count behind the coordinator.
	shards = 3
	// sweepPoints is the size of each repetition's streamed sweep.
	sweepPoints = 512
	// probePoints is how many of the sweep's points each cached round then
	// requests again, one at a time: cache hits on the owning shard, so
	// their latencies (p50_ms and e2e.p99_ms) time the coordinator's
	// routing and the shard's request path, not the disk.
	probePoints = 128
	// cachedRounds is how many times each repetition repeats its sweep as
	// cache hits, each followed by the probe points. The cached rounds are
	// what the end-to-end metrics time, so more of them per repetition
	// puts more of the run into those metrics.
	cachedRounds = 3
)

// searchSpec is the fixed design-space search every repetition runs: the
// Table 4 space (the opt defaults) on ResNet-50 with a yield axis, 256
// candidates — enough that the optimizer's per-candidate rewrite of its
// whole checkpoint shows in the search's time. It does not depend on the
// seed, so its front is pinned by committedFrontDigest.
var searchSpec = opt.Spec{
	Name:        "perfbench",
	Preset:      "fb",
	Network:     "ResNet-50",
	Strategy:    opt.StrategyEvolve,
	Generations: 8,
	Population:  32,
	Seed:        7,
	YieldTrials: 8,
}

// sweepNetworks are the registry networks sweep points draw from; none is
// the search's network, and every sweep point carries Batch >= 2, so no
// sweep point is ever one of the search's candidates.
var sweepNetworks = []string{"AlexNet", "VGG-16", "ResNet-18", "ResNet-34"}

// sweepItem is one sweep point with its expected report.
type sweepItem struct {
	req    serve.EvaluateRequest
	expect []arch.Report
}

// genSweep draws n distinct valid sweep points from the seed.
func genSweep(seed int64, n int) ([]sweepItem, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xc1a5))
	seen := map[string]bool{}
	var items []sweepItem
	for attempts := 0; len(items) < n; attempts++ {
		if attempts > 50*n {
			return nil, fmt.Errorf("could not draw %d distinct sweep points", n)
		}
		ov := map[string]int{
			"M":       []int{4, 8, 16, 32, 64}[rng.Intn(5)],
			"NRFCU":   4 * (1 + rng.Intn(8)),
			"NLambda": []int{1, 2, 4}[rng.Intn(3)],
			"Reuses":  []int{1, 3, 7, 15, 31}[rng.Intn(5)],
			"Batch":   2 + rng.Intn(15),
		}
		req := serve.EvaluateRequest{Preset: "fb", Network: sweepNetworks[rng.Intn(len(sweepNetworks))]}
		req.Overrides, _ = json.Marshal(ov)
		key := string(req.Overrides) + req.Network
		if seen[key] {
			continue
		}
		it, ok := resolveItem(req)
		if !ok {
			continue
		}
		seen[key] = true
		items = append(items, sweepItem{req: req, expect: it.expect})
	}
	return items, nil
}

// clusterEnv is one set-up copy of the cluster workload.
type clusterEnv struct {
	r      *run
	points []sweepItem
	probes []sweepItem
	http   *http.Client
	dirs   []string
}

// rig is one fresh cluster: three shards over a shared store directory
// and a coordinator with an optimize checkpoint directory.
type rig struct {
	dir      string
	storeDir string
	optDir   string
	stores   []*serve.DiskStore
	servers  []*serve.Server
	shardTS  []*httptest.Server
	coord    *cluster.Coordinator
	coordTS  *httptest.Server
	client   *serveclient.Client
	trace    *obs.Trace
	traceAt  time.Time
}

func setupCluster(r *run) (*instance, error) {
	points, err := genSweep(r.seed, sweepPoints)
	if err != nil {
		return nil, err
	}
	env := &clusterEnv{
		r:      r,
		points: points,
		probes: points[:probePoints],
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns(), MaxConnsPerHost: conns()}},
	}
	// Warm-up: one untimed sweep of the same points on a rig of its own,
	// so the sweep code path and the heap are warm before timing. Its
	// shards keep only the memory LRU, so set-up writes no files and does
	// not time the disk; the rig is then discarded, so every timed
	// repetition still starts from cold caches.
	rg, err := env.newRig(false, false)
	if err != nil {
		return nil, err
	}
	warm := r.phase("cluster.warm-sweep")
	if _, err := env.sweep(context.Background(), rg, points, warm); err != nil {
		rg.close()
		return nil, err
	}
	rg.close()
	return &instance{measure: env.measure, close: env.close}, nil
}

func (e *clusterEnv) close() {
	e.http.CloseIdleConnections()
	for _, d := range e.dirs {
		os.RemoveAll(d)
	}
}

// newRig starts a fresh cluster in a fresh scratch directory. With disk
// the shards share a DiskStore there; without it each keeps the default
// memory LRU.
func (e *clusterEnv) newRig(traced, disk bool) (*rig, error) {
	dir, err := os.MkdirTemp(outDir, "cluster-")
	if err != nil {
		return nil, err
	}
	e.dirs = append(e.dirs, dir)
	rg := &rig{dir: dir, storeDir: filepath.Join(dir, "store"), optDir: filepath.Join(dir, "optimize")}
	var urls []string
	for i := 0; i < shards; i++ {
		var cfg serve.Config
		if disk {
			st, err := serve.NewDiskStore(rg.storeDir, 0)
			if err != nil {
				rg.close()
				return nil, err
			}
			cfg.Store = st
			rg.stores = append(rg.stores, st)
		}
		srv := serve.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		rg.servers = append(rg.servers, srv)
		rg.shardTS = append(rg.shardTS, ts)
		urls = append(urls, ts.URL)
	}
	if traced {
		rg.traceAt, rg.trace = time.Now(), obs.NewTrace()
	}
	// No more dispatches per shard than the coordinator's shard clients
	// keep idle connections (Go's default transport keeps two per host):
	// with the default of 8 the coordinator opens and closes a connection
	// for most points, and the thousands of TIME_WAIT sockets it leaves
	// slow the connects of whatever runs next (README.md, "Noise").
	rg.coord, err = cluster.New(cluster.Config{Shards: urls, Seed: 1, OptimizeDir: rg.optDir, Trace: rg.trace, ShardConcurrency: http.DefaultMaxIdleConnsPerHost})
	if err != nil {
		rg.close()
		return nil, err
	}
	rg.coordTS = httptest.NewServer(rg.coord.Handler())
	// No client retries: a shed or a 5xx must surface as a failed
	// operation, not be retried into a success.
	rg.client, err = serveclient.New(serveclient.Config{BaseURL: rg.coordTS.URL, Seed: e.r.seed, MaxRetries: -1})
	if err != nil {
		rg.close()
		return nil, err
	}
	return rg, nil
}

func (rg *rig) close() {
	if rg.coordTS != nil {
		rg.coordTS.Close()
	}
	if rg.coord != nil {
		rg.coord.Close()
	}
	for _, ts := range rg.shardTS {
		ts.Close()
	}
	for _, s := range rg.servers {
		s.Close()
	}
	os.RemoveAll(rg.dir)
}

// sweep streams one sweep of points through the coordinator, checking
// every line against the direct evaluation, and returns its duration. An
// inline error, a differing report or a point that never returns is a
// failed operation.
func (e *clusterEnv) sweep(ctx context.Context, rg *rig, points []sweepItem, p *phase) (time.Duration, error) {
	req := serve.SweepRequest{Points: make([]serve.EvaluateRequest, len(points))}
	for i, it := range points {
		req.Points[i] = it.req
	}
	got := make([]bool, len(points))
	start := time.Now()
	err := rg.client.SweepStream(ctx, req, func(line serve.SweepStreamLine) error {
		if line.Index < 0 || line.Index >= len(points) || got[line.Index] {
			e.r.mismatch("sweep: unexpected line index %d", line.Index)
			return nil
		}
		got[line.Index] = true
		ok := line.Error == "" && reflect.DeepEqual(line.Reports, points[line.Index].expect)
		if !ok {
			e.r.mismatch("sweep point %d: error %q or reports differ from direct evaluation", line.Index, line.Error)
		}
		p.done(ok)
		return nil
	})
	elapsed := time.Since(start)
	for i, g := range got {
		if !g {
			p.done(false)
			e.r.mismatch("sweep point %d never returned", i)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("sweep: %w", err)
	}
	return elapsed, nil
}

// probe requests each probe point again as its own /v1/evaluate through
// the coordinator, one after another, checking every answer; it returns
// the latencies in ms.
func (e *clusterEnv) probe(ctx context.Context, rg *rig, rec *recorder, lane int, p *phase) []float64 {
	var lat []float64
	for i, it := range e.probes {
		start := time.Now()
		resp, err := rg.client.Evaluate(ctx, it.req)
		end := time.Now()
		rec.add("perfbench.evaluate", lane, start, end)
		ok := err == nil && reflect.DeepEqual(resp.Reports, it.expect)
		if !ok {
			e.r.mismatch("probe point %d: error %v or reports differ from direct evaluation", i, err)
		}
		p.done(ok)
		if ok {
			lat = append(lat, ms(end.Sub(start)))
		}
	}
	return lat
}

// searchViaCoordinator runs the search as POST /v1/optimize on the
// coordinator, reading the NDJSON stream to its final line.
func (e *clusterEnv) searchViaCoordinator(ctx context.Context, rg *rig) (*opt.StatusResponse, error) {
	body, err := json.Marshal(searchSpec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rg.coordTS.URL+"/v1/optimize", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", serve.NDJSONContentType)
	resp, err := e.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("optimize: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var last opt.Update
	for sc.Scan() {
		last = opt.Update{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return nil, fmt.Errorf("optimize: decoding stream: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("optimize: reading stream: %w", err)
	}
	if last.Status == nil {
		return nil, fmt.Errorf("optimize: stream ended without a final status")
	}
	return last.Status, nil
}

// searchViaRunner repeats the search through opt.Runner with a
// benchmark-owned PointEval that sends each candidate to the coordinator
// and records a span around the call.
func (e *clusterEnv) searchViaRunner(ctx context.Context, rg *rig, rec *recorder, lane int) (*opt.Result, time.Duration, error) {
	spec := searchSpec.WithDefaults()
	id, err := spec.ID()
	if err != nil {
		return nil, 0, err
	}
	var mu sync.Mutex
	var free []int
	var evals [][2]time.Time
	eval := func(ctx context.Context, spec opt.Spec, cfg arch.SystemConfig, _ string) (opt.PointMetrics, error) {
		data, err := arch.ConfigJSON(cfg)
		if err != nil {
			return opt.PointMetrics{}, err
		}
		mu.Lock()
		var l int
		if n := len(free); n > 0 {
			l, free = free[n-1], free[:n-1]
		} else {
			l = rec.newLane(false)
		}
		mu.Unlock()
		start := time.Now()
		resp, err := rg.client.Evaluate(ctx, serve.EvaluateRequest{Config: data, Network: spec.Network})
		end := time.Now()
		rec.add("perfbench.point_eval", l, start, end)
		mu.Lock()
		free = append(free, l)
		evals = append(evals, [2]time.Time{start, end})
		mu.Unlock()
		if err != nil {
			return opt.PointMetrics{}, err
		}
		return opt.PointMetricsFromReports(resp.Reports), nil
	}
	runner := &opt.Runner{Spec: spec, ID: id, Dir: rg.optDir, Eval: eval, Parallelism: conns()}
	start := time.Now()
	res, err := runner.Run(ctx)
	end := time.Now()
	rec.add("opt.run", lane, start, end)
	if err != nil {
		return nil, 0, err
	}
	return res, end.Sub(start) - union(evals), nil
}

// union is the total length of the union of the intervals.
func union(iv [][2]time.Time) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]time.Time(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0].Before(s[j][0]) })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = x
			continue
		}
		if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// frontDigest hashes a front's canonical JSON encoding.
func frontDigest(front []opt.FrontPoint) string {
	data, _ := json.Marshal(front)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// hypervolume is the front's hypervolume over its objectives, each axis
// normalized to the front's maximum, above the origin.
func hypervolume(front []opt.FrontPoint) float64 {
	if len(front) == 0 {
		return 0
	}
	vec := func(m opt.Metrics) []float64 {
		return []float64{m.FPS, m.FPSPerWatt, m.FPSPerMM2, m.PAP, m.Yield}
	}
	maxima := make([]float64, 5)
	for _, p := range front {
		for i, v := range vec(p.Metrics) {
			if v > maxima[i] {
				maxima[i] = v
			}
		}
	}
	var pts [][]float64
	for _, p := range front {
		v := vec(p.Metrics)
		for i := range v {
			v[i] = ratio(v[i], maxima[i])
		}
		pts = append(pts, v)
	}
	return opt.Hypervolume(pts, make([]float64, 5))
}

// storeStats counts the files and bytes in the shared store directory.
func storeStats(dir string) (files int, bytes int64) {
	entries, _ := os.ReadDir(dir)
	for _, en := range entries {
		if filepath.Ext(en.Name()) != ".json" {
			continue
		}
		if info, err := en.Info(); err == nil {
			files++
			bytes += info.Size()
		}
	}
	return files, bytes
}

// measure runs repetitions of (fresh cluster, streamed sweep of misses,
// cachedRounds rounds of the same sweep as hits and single cached points,
// search) until the run length is spent. The miss sweep and the search
// are disk-bound, and the shared VM's disk speed drifts twofold over
// minutes, so their rates are per-layer figures (medians over
// repetitions). The end-to-end figures come from the cached rounds:
// ops_per_cpu_s is the fastRate of their sweep rates and p50_ms the
// fastTime of their probes' median latencies.
func (e *clusterEnv) measure(rec *recorder, m map[string]float64) error {
	ctx := context.Background()
	lane := rec.newLane(true)
	tag := "untraced"
	if rec != nil {
		tag = "traced"
	}
	sweepPhase := e.r.phase("cluster.sweep." + tag)
	resweepPhase := e.r.phase("cluster.resweep." + tag)
	probePhase := e.r.phase("cluster.point." + tag)
	searchPhase := e.r.phase("cluster.search." + tag)
	var pointLat, roundP50s, sweepRates, cachedRates, cachedCPURates, searchRates []float64
	var dispatches time.Duration
	var dispatchN int
	var optSelf time.Duration
	// counts sums per-repetition counters; each is reported per repetition.
	counts := map[string]float64{}
	from := time.Now()
	deadline := from.Add(e.r.length)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		rg, err := e.newRig(rec != nil, true)
		if err != nil {
			return err
		}
		sweepStart := time.Now()
		sweepDur, err := e.sweep(ctx, rg, e.points, sweepPhase)
		rec.add("perfbench.sweep", lane, sweepStart, sweepStart.Add(sweepDur))
		if err != nil {
			rg.close()
			return err
		}
		// The same sweep again, cachedRounds times, each followed by the
		// probe points: every point is now a cache hit on its owning
		// shard, so this times the scatter/gather and request paths
		// without the disk.
		for round := 0; round < cachedRounds; round++ {
			resweepStart, cpu := time.Now(), cpuTime()
			resweepDur, err := e.sweep(ctx, rg, e.points, resweepPhase)
			cpu = cpuTime() - cpu
			rec.add("perfbench.sweep", lane, resweepStart, resweepStart.Add(resweepDur))
			if err != nil {
				rg.close()
				return err
			}
			cachedRates = append(cachedRates, float64(len(e.points))/resweepDur.Seconds())
			cachedCPURates = append(cachedCPURates, float64(len(e.points))/cpu.Seconds())
			lat := e.probe(ctx, rg, rec, lane, probePhase)
			pointLat = append(pointLat, lat...)
			roundP50s = append(roundP50s, quantile(lat, 0.50))
		}
		var front []opt.FrontPoint
		var st opt.StatusResponse
		searchStart := time.Now()
		if rec == nil {
			status, err := e.searchViaCoordinator(ctx, rg)
			if err != nil {
				rg.close()
				return err
			}
			st = *status
			front = st.Front
		} else {
			res, self, err := e.searchViaRunner(ctx, rg, rec, lane)
			if err != nil {
				rg.close()
				return err
			}
			optSelf += self
			st = opt.StatusResponse{Status: opt.StatusDone, ExecutedPoints: res.Executed, CompletedPoints: res.Completed, InfeasiblePoints: res.Infeasible}
			front = res.Front
		}
		searchDur := time.Since(searchStart)
		ok := st.Status == opt.StatusDone && frontDigest(front) == committedFrontDigest
		if !ok {
			e.r.mismatch("search ended %q with front digest %s, want done with %s", st.Status, frontDigest(front), committedFrontDigest)
		}
		searchPhase.done(ok)

		sweepRates = append(sweepRates, float64(len(e.points))/sweepDur.Seconds())
		searchRates = append(searchRates, float64(st.CompletedPoints)/searchDur.Seconds())

		snap := rg.coord.MetricsSnapshot()
		var routed []float64
		for _, sh := range snap.Shards {
			routed = append(routed, float64(sh.Routed))
		}
		counts["cluster.hedges"] += float64(snap.Hedges)
		counts["cluster.failovers"] += float64(snap.Failovers)
		counts["cluster.point_errors"] += float64(snap.PointErrors)
		counts["cluster.shard_skew"] += maxOf(routed) / mean(routed)
		cs := rg.client.Stats()
		counts["serveclient.retries"] += float64(cs.Retries)
		counts["serveclient.shed"] += float64(cs.Shed)
		files, size := storeStats(rg.storeDir)
		counts["store.disk_writes"] += float64(files)
		counts["store.disk_bytes"] += float64(size)
		for _, st := range rg.stores {
			counts["store.disk_hits"] += float64(st.DiskHits())
		}
		if cp, err := os.Stat(opt.CheckpointPath(rg.optDir, mustID())); err == nil {
			m["opt.checkpoint_kb"] = float64(cp.Size()) / 1024
		}
		m["opt.points_executed"] = float64(st.ExecutedPoints)
		m["opt.points_infeasible"] = float64(st.InfeasiblePoints)
		m["opt.front_size"] = float64(len(front))
		m["opt.hypervolume"] = hypervolume(front)
		if rec != nil {
			rec.foldConcurrent(rg.trace, rg.traceAt)
			for _, ev := range rg.trace.Events() {
				if ev.Name == "cluster.dispatch" {
					dispatches += ev.Dur
					dispatchN++
				}
			}
		}
		rg.close()
	}
	rec.window(from, time.Now())
	for k, v := range counts {
		m[k] = v / float64(len(sweepRates))
	}
	m["p50_ms"] = fastTime(roundP50s)
	m["e2e.p99_ms"] = quantile(pointLat, 0.99)
	m["ops_per_cpu_s"] = fastRate(cachedCPURates)
	m["e2e.ops_per_s"] = median(cachedRates)
	m["e2e.sweep_points_per_s"] = median(sweepRates)
	m["e2e.optimize_points_per_s"] = median(searchRates)
	if rec != nil {
		m["cluster.dispatch_us"] = ratio(us(dispatches), float64(dispatchN))
		evalSum, evalN := rec.totalOf("perfbench.point_eval")
		m["opt.eval_ms"] = ratio(ms(evalSum), float64(evalN))
		m["opt.self_ms"] = ms(optSelf) / float64(len(searchRates))
	}
	return nil
}

// mustID is the search's identity (the checkpoint file name).
func mustID() string {
	id, err := searchSpec.WithDefaults().ID()
	if err != nil {
		panic("perfbench: search spec has no identity: " + err.Error())
	}
	return id
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
