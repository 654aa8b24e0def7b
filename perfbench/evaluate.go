// This file is the evaluate workload: an open loop of /v1/evaluate
// requests against one in-process worker with refocus-serve's defaults.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
	"refocus/internal/serve"
	"refocus/internal/sim"
)

var evaluateWorkload = workload{
	name:  "evaluate",
	setup: setupEvaluate,
}

const (
	// refRate is the open-loop reference rate p50_ms and e2e.p99_ms are
	// measured at, in requests per second: about a third of what the
	// closed loop sustains on one P, so the figures show service time
	// rather than queueing. At 500 the process idled between most
	// requests, and its p50 then varied more with how fast the VM woke.
	refRate = 1000
	// latencyLimit is the p99 a ladder rate must stay within.
	latencyLimit = 10 * time.Millisecond
	// populationSize is the number of distinct (design point, network,
	// fault set) requests; with "all" requests expanding to eight pairs
	// it is well past the 4096-entry LRU.
	populationSize = 10000
	// zipfS and zipfV shape popularity, P(rank k) ∝ (zipfV+k)^-zipfS, so
	// about half the (config, network) pairs requested are still in the
	// LRU.
	zipfS = 1.1
	zipfV = 300
	// warmRequests are sent before timing to bring the LRU to its
	// steady state.
	warmRequests = 3000
	// refWindow and satWindow are the lengths of one reference-rate
	// window and one saturation window.
	refWindow = time.Second
	satWindow = 500 * time.Millisecond
)

// ladder is the fixed open-loop rate ladder (requests per second) the
// traced run walks to find the highest rate that meets latencyLimit.
var ladder = []int{500, 1000, 2000, 3000, 4000, 5000}

// conns is the connection (and caller) bound: no more load than the
// host's cores can generate without the generator starving the server.
func conns() int { return runtime.NumCPU() }

// evalItem is one distinct request of the population: its body and the
// SHA-256 digest of its expected reports in compact JSON. The population
// keeps no more than that because the servers share the process's heap:
// a full copy of every expected report and resolved network made the live
// heap 55 MB, and each collection of it ran on the servers' time.
type evalItem struct {
	body   []byte
	expect [sha256.Size]byte
}

// resolved is a request resolved the way the service documents it, with
// its reports from calling arch.Evaluate (or faults.Evaluate) directly.
type resolved struct {
	cfg    arch.SystemConfig
	nets   []nn.Network
	spec   []byte
	fs     *faults.FaultSet
	expect []arch.Report
}

// evalResp is the part of the /v1/evaluate response the benchmark reads.
// Reports stays raw and is checked against the expected digest; Trace
// stays raw so it can be folded into the benchmark's timeline.
type evalResp struct {
	CacheHits   int
	CacheMisses int
	Reports     json.RawMessage
	Trace       json.RawMessage
}

// presetNames covers the five presets, by canonical name and alias.
var presetNames = []string{"single", "baseline", "ReFOCUS-FF", "fb", "ReFOCUS-FB+WS"}

// genPopulation builds the seeded request population.
func genPopulation(seed int64) ([]evalItem, error) {
	rng := rand.New(rand.NewSource(seed))
	inline := make([][]byte, 32)
	for i := range inline {
		spec, err := json.Marshal(genNetwork(rng, i))
		if err != nil {
			return nil, err
		}
		inline[i] = spec
	}
	seen := map[string]bool{}
	var items []evalItem
	for k := 0; k < populationSize; k++ {
		// The request class (preset, network kind, fault set or not) is a
		// fixed function of the popularity rank, so every seed sends the
		// same class mix at every popularity level; the seed draws the
		// design points, inline specs and faults within each class.
		for attempts := 0; ; attempts++ {
			if attempts > 1000 {
				return nil, fmt.Errorf("could not draw a distinct valid request for rank %d", k)
			}
			req := drawRequest(rng, k, inline)
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			if seen[string(body)] {
				continue
			}
			res, ok := resolveItem(req)
			if !ok {
				continue // an invalid combination: the workload sends none
			}
			want, err := json.Marshal(res.expect)
			if err != nil {
				return nil, err
			}
			seen[string(body)] = true
			items = append(items, evalItem{body: body, expect: sha256.Sum256(want)})
			break
		}
	}
	return items, nil
}

// networkPattern assigns network kinds to popularity ranks: of every 20
// ranks, 7 ResNet-50, 3 BERT-base, 3 ViT-B/16, 2 "all" and 5 inline.
// These shares, like the fault share and the override draws below, are
// assumptions chosen to cover every request class, not measured traffic
// (README.md, "The mix is an assumption").
var networkPattern = []string{"ResNet-50", "inline", "BERT-base", "ResNet-50", "ViT-B/16",
	"all", "ResNet-50", "inline", "BERT-base", "ResNet-50", "inline", "ViT-B/16", "ResNet-50",
	"inline", "all", "ResNet-50", "BERT-base", "ViT-B/16", "ResNet-50", "inline"}

// drawRequest draws one request of rank k's class.
func drawRequest(rng *rand.Rand, k int, inline [][]byte) serve.EvaluateRequest {
	req := serve.EvaluateRequest{Preset: presetNames[(k/len(networkPattern))%len(presetNames)]}
	ov := map[string]int{
		"M":       []int{4, 8, 16, 32, 64}[rng.Intn(5)],
		"NRFCU":   2 * (2 + rng.Intn(15)),
		"NLambda": []int{1, 2, 4}[rng.Intn(3)],
		"Batch":   1 + rng.Intn(16),
	}
	if req.Preset == "fb" || req.Preset == "ReFOCUS-FB+WS" {
		ov["Reuses"] = []int{1, 3, 7, 15, 31}[rng.Intn(5)]
	}
	req.Overrides, _ = json.Marshal(ov)
	if n := networkPattern[k%len(networkPattern)]; n == "inline" {
		req.NetworkSpec = inline[rng.Intn(len(inline))]
	} else {
		req.Network = n
	}
	if k%7 == 3 {
		fs := map[string]any{"DeadRFCUs": []int{rng.Intn(ov["NRFCU"])}}
		if rng.Intn(2) == 0 {
			fs["BufferExcessLossDB"] = 0.1 * float64(1+rng.Intn(4))
		}
		if rng.Intn(2) == 0 {
			fs["ADCEnergyFactor"] = 1.25
		}
		req.Faults, _ = json.Marshal(fs)
	}
	return req
}

// genNetwork draws a small inline workload: a few conv layers and a
// classifier, shaped like the registry CNNs.
func genNetwork(rng *rand.Rand, i int) nn.Network {
	net := nn.Network{Name: fmt.Sprintf("inline-%d", i)}
	c, hw := 3, []int{32, 56, 112, 224}[rng.Intn(4)]
	for l := 0; l < 2+i%4; l++ {
		k := []int{1, 3, 5}[rng.Intn(3)]
		out := []int{16, 32, 64, 128}[rng.Intn(4)]
		stride := 1 + rng.Intn(2)
		net.Layers = append(net.Layers, nn.NewConv(nn.ConvLayer{
			Name: fmt.Sprintf("conv%d", l), InC: c, InH: hw, InW: hw, OutC: out,
			KH: k, KW: k, Stride: stride, Pad: k / 2, Repeat: 1 + rng.Intn(2),
		}))
		c = out
		hw = (hw+2*(k/2)-k)/stride + 1
	}
	net.Layers = append(net.Layers, nn.NewFC(nn.FCLayer{Name: "fc", In: c * hw * hw, Out: 10, Tokens: 1, Repeat: 1}))
	return net
}

// resolveItem resolves a request the way the service documents it
// (preset, then overrides, then Validate; registry name or inline spec;
// optional fault set) and evaluates it directly. ok is false for a
// request the service would reject.
func resolveItem(req serve.EvaluateRequest) (resolved, bool) {
	cfg, err := arch.PresetByName(req.Preset)
	if err != nil {
		return resolved{}, false
	}
	dec := json.NewDecoder(bytes.NewReader(req.Overrides))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil || cfg.Validate() != nil {
		return resolved{}, false
	}
	it := resolved{cfg: cfg}
	if len(req.NetworkSpec) > 0 {
		net, err := nn.ParseNetwork(req.NetworkSpec)
		if err != nil {
			return resolved{}, false
		}
		it.nets, it.spec = []nn.Network{net}, req.NetworkSpec
	} else if it.nets, err = sim.ResolveNetworks(req.Network); err != nil {
		return resolved{}, false
	}
	if len(req.Faults) > 0 {
		fs, err := faults.Parse(req.Faults)
		if err != nil || fs.Validate(cfg) != nil {
			return resolved{}, false
		}
		it.fs = &fs
	}
	for _, net := range it.nets {
		var rep arch.Report
		if it.fs != nil {
			fr, err := faults.Evaluate(cfg, *it.fs, net)
			if err != nil {
				return resolved{}, false
			}
			rep = fr.Report
		} else if rep, err = arch.Evaluate(cfg, net); err != nil {
			return resolved{}, false
		}
		it.expect = append(it.expect, rep)
	}
	return it, true
}

// genSequence draws the request order: population ranks by Zipf
// popularity.
func genSequence(seed int64, n, length int) []int32 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(n-1))
	seq := make([]int32, length)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// evalEnv is one set-up copy of the evaluate workload.
type evalEnv struct {
	r      *run
	items  []evalItem
	seq    []int32
	next   atomic.Int64 // position in seq
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	// seenBefore marks items already requested (the input's repeat share).
	seenMu sync.Mutex
	seen   []bool
}

func setupEvaluate(r *run) (*instance, error) {
	items, err := genPopulation(r.seed)
	if err != nil {
		return nil, err
	}
	env := &evalEnv{
		r:     r,
		items: items,
		seq:   genSequence(r.seed, len(items), 1<<19),
		srv:   serve.New(serve.Config{}),
		seen:  make([]bool, len(items)),
	}
	env.ts = httptest.NewServer(env.srv.Handler())
	env.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns(),
		MaxConnsPerHost:     conns(),
	}}
	warm := r.phase("evaluate.warm")
	closedLoop(0, warmRequests, func(lane int) bool {
		ok, err := env.send(nil, lane, nil)
		if err != nil {
			r.mismatch("evaluate warm-up: %v", err)
		}
		warm.done(ok)
		return ok
	}, make([]int, conns()))
	return &instance{measure: env.measure, close: env.close}, nil
}

func (e *evalEnv) close() {
	e.ts.Close()
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// take returns the next request's item index, marking whether the item
// was requested before.
func (e *evalEnv) take() (int, bool) {
	k := int(e.next.Add(1)-1) % len(e.seq)
	idx := int(e.seq[k])
	e.seenMu.Lock()
	repeat := e.seen[idx]
	e.seen[idx] = true
	e.seenMu.Unlock()
	return idx, repeat
}

// sendStats accumulates what the responses of one pass show.
type sendStats struct {
	hits, misses, respBytes, requests, repeats atomic.Int64
	outsideNs                                  atomic.Int64
	traced                                     atomic.Int64
}

// send issues the next request of the sequence on lane and checks the
// answer against the direct evaluation; a non-2xx status (a 429 shed
// included) or a differing report is a failure. With rec non-nil the
// request asks for ?trace=1 and its spans are folded into rec.
func (e *evalEnv) send(rec *recorder, lane int, stats *sendStats) (bool, error) {
	idx, repeat := e.take()
	it := &e.items[idx]
	url := e.ts.URL + "/v1/evaluate"
	if rec != nil {
		url += "?trace=1"
	}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(it.body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var er evalResp
	if err := json.Unmarshal(data, &er); err != nil {
		return false, err
	}
	end := time.Now()
	if rec != nil {
		rec.add("perfbench.evaluate", lane, start, end)
		root, err := rec.foldResponseTrace(er.Trace, lane, start, end)
		if err != nil {
			return false, err
		}
		if stats != nil {
			stats.outsideNs.Add(int64(end.Sub(start) - root))
			stats.traced.Add(1)
		}
	}
	if stats != nil {
		stats.requests.Add(1)
		stats.hits.Add(int64(er.CacheHits))
		stats.misses.Add(int64(er.CacheMisses))
		stats.respBytes.Add(int64(len(data)))
		if repeat {
			stats.repeats.Add(1)
		}
	}
	var got bytes.Buffer
	if err := json.Compact(&got, er.Reports); err != nil {
		return false, err
	}
	if sha256.Sum256(got.Bytes()) != it.expect {
		e.r.mismatch("evaluate %s: reports differ from direct evaluation", it.body)
		return false, nil
	}
	return true, nil
}

// loopResult is one load phase's outcome.
type loopResult struct {
	lat        []float64 // ms from scheduled send to decoded response; +Inf for a failure
	late       []float64 // ms the generator started behind schedule
	backlogMax int64
}

// growing reports whether the generator's backlog grew: over the last
// quarter of the schedule, the median request started more than one
// request per connection behind.
func (l loopResult) growing(rate float64, conns int) bool {
	tail := l.late[len(l.late)*3/4:]
	return quantile(tail, 0.5)*rate/1000 > float64(conns)
}

// openLoop sends at rate requests per second for dur, each request due
// at a fixed time regardless of earlier responses (independent users),
// over at most conns() connections. A request is timed from when it was
// due, so a stall charges every request queued behind it.
func openLoop(rec *recorder, rate float64, dur time.Duration, do func(lane int) bool, lanes []int) (loopResult, error) {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	res := loopResult{lat: make([]float64, n), late: make([]float64, n)}
	sleepers := make([]*sleeper, len(lanes))
	for w := range sleepers {
		s, err := newSleeper()
		if err != nil {
			for _, s := range sleepers[:w] {
				s.close()
			}
			return res, err
		}
		sleepers[w] = s
	}
	var next, backlog atomic.Int64
	var waitErr atomic.Pointer[error]
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < len(lanes); w++ {
		wg.Add(1)
		go func(lane int, sl *sleeper) {
			defer wg.Done()
			defer sl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				waitStart := time.Now()
				if err := sl.until(due); err != nil {
					waitErr.CompareAndSwap(nil, &err)
					return
				}
				start := time.Now()
				rec.add("loadgen.wait", lane, waitStart, start)
				if b := int64(start.Sub(t0)/interval) - int64(i); b > backlog.Load() {
					backlog.Store(b)
				}
				ok := do(lane)
				res.late[i] = ms(start.Sub(due))
				if ok {
					res.lat[i] = ms(time.Since(due))
				} else {
					res.lat[i] = math.Inf(1)
				}
			}
		}(lanes[w], sleepers[w])
	}
	wg.Wait()
	res.backlogMax = backlog.Load()
	if err := waitErr.Load(); err != nil {
		return res, *err
	}
	return res, nil
}

// sleeper waits for a lane's due times on a Linux timerfd read through Go's
// network poller. Go's own sleeps wake up to a millisecond late when the
// process is idle, which would add generator error to sub-millisecond
// requests; a nanosleep blocks the thread while it holds the process's
// only P (see run.execute), so the server could not run meanwhile. A
// timerfd read parks just the goroutine, and the poller wakes it within
// microseconds of the due time.
type sleeper struct {
	fd int
	f  *os.File
}

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// clockMonotonic is CLOCK_MONOTONIC, which the syscall package does not
// name.
const clockMonotonic = 1

// until returns at t, or as soon after as the poller wakes the goroutine.
func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d < time.Microsecond {
		return nil // a zero expiry would disarm the timer instead
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }

// closedLoop runs one caller per lane back to back until dur passes (or,
// with dur 0, until count operations are done). It returns how many
// operations succeeded.
func closedLoop(dur time.Duration, count int, do func(lane int) bool, lanes []int) int {
	start := time.Now()
	var issued, succeeded atomic.Int64
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				if dur == 0 && issued.Add(1) > int64(count) {
					return
				}
				if do(lane) {
					succeeded.Add(1)
				}
			}
		}(lane)
	}
	wg.Wait()
	return int(succeeded.Load())
}

// windowQuantiles splits latencies (in schedule order) into consecutive
// windows of n requests and returns each window's q-quantile (one value
// for the whole slice when it is shorter than a window). With n = 1000,
// each window's p99 has ten samples beyond it. Failed requests are left
// out; they fail the run.
func windowQuantiles(lat []float64, n int, q float64) []float64 {
	var qs []float64
	for i := 0; i+n <= len(lat); i += n {
		qs = append(qs, quantile(finite(lat[i:i+n]), q))
	}
	if len(qs) == 0 {
		qs = append(qs, quantile(finite(lat), q))
	}
	return qs
}

// finite drops the +Inf entries failures leave.
func finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// serverStages reads the worker's stage histograms from the Prometheus
// exposition: sum in seconds and count per histogram name.
func (e *evalEnv) serverStages() (map[string][2]float64, error) {
	resp, err := e.client.Get(e.ts.URL + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string][2]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			continue // labelled series: per-endpoint, not a stage
		}
		switch {
		case strings.HasSuffix(name, "_sum"):
			s := out[strings.TrimSuffix(name, "_sum")]
			s[0] = v
			out[strings.TrimSuffix(name, "_sum")] = s
		case strings.HasSuffix(name, "_count"):
			s := out[strings.TrimSuffix(name, "_count")]
			s[1] = v
			out[strings.TrimSuffix(name, "_count")] = s
		}
	}
	return out, sc.Err()
}

// measure runs the reference-rate open loop and the saturation closed
// loop (and, on a traced run's untraced pass, the rate ladder); with rec
// it records spans and times the nn/arch/faults calls directly.
func (e *evalEnv) measure(rec *recorder, m map[string]float64) error {
	lanes := make([]int, conns())
	for i := range lanes {
		lanes[i] = rec.newLane(true)
	}
	tag := "untraced"
	if rec != nil {
		tag = "traced"
	}
	before := e.srv.MetricsSnapshot()
	stagesBefore, err := e.serverStages()
	if err != nil {
		return err
	}
	var stats sendStats
	do := func(p *phase) func(lane int) bool {
		return func(lane int) bool {
			ok, err := e.send(rec, lane, &stats)
			if err != nil {
				e.r.mismatch("evaluate: %v", err)
			}
			p.done(ok)
			return ok
		}
	}
	// The run alternates a window of the reference-rate open loop with a
	// window of the closed loop, so both sample the host's fast and slow
	// spells alike (README.md, "Noise").
	from := time.Now()
	refPhase := do(e.r.phase("evaluate.ref-rate." + tag))
	sat := do(e.r.phase("evaluate.saturation." + tag))
	var ref loopResult
	var cpuRates, wallRates []float64
	for w := 0; w < max(1, int(e.r.length/(refWindow+satWindow))); w++ {
		win, err := openLoop(rec, refRate, refWindow, refPhase, lanes)
		if err != nil {
			return err
		}
		ref.lat = append(ref.lat, win.lat...)
		ref.late = append(ref.late, win.late...)
		ref.backlogMax = max(ref.backlogMax, win.backlogMax)

		start, cpu := time.Now(), cpuTime()
		n := float64(closedLoop(satWindow, 0, sat, lanes))
		cpu = cpuTime() - cpu
		cpuRates = append(cpuRates, n/cpu.Seconds())
		wallRates = append(wallRates, n/time.Since(start).Seconds())
	}
	rec.window(from, time.Now())

	perWindow := int(refRate * refWindow.Seconds())
	m["p50_ms"] = fastTime(windowQuantiles(ref.lat, perWindow, 0.50))
	m["e2e.p99_ms"] = median(windowQuantiles(ref.lat, perWindow, 0.99))
	m["ops_per_cpu_s"] = fastRate(cpuRates)
	m["e2e.ops_per_s"] = median(wallRates)
	m["loadgen.late_p99_ms"] = quantile(ref.late, 0.99)
	m["loadgen.backlog_max"] = float64(ref.backlogMax)

	after := e.srv.MetricsSnapshot()
	m["serve.evaluations"] = float64(after.Evaluations - before.Evaluations)
	m["serve.shed"] = float64(after.Shed - before.Shed)
	hits, misses := float64(stats.hits.Load()), float64(stats.misses.Load())
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.resp_bytes"] = ratio(float64(stats.respBytes.Load()), float64(stats.requests.Load()))
	m["input.cache_repeat_share"] = ratio(float64(stats.repeats.Load()), float64(stats.requests.Load()))
	stagesAfter, err := e.serverStages()
	if err != nil {
		return err
	}
	enc := stagesAfter["refocus_encode_seconds"]
	encBefore := stagesBefore["refocus_encode_seconds"]
	m["serve.encode_us"] = 1e6 * ratio(enc[0]-encBefore[0], enc[1]-encBefore[1])

	if rec == nil && e.r.traced {
		maxRate := 0
		for _, rate := range ladder {
			res, err := openLoop(nil, float64(rate), e.rungLength(), do(e.r.phase("evaluate.ladder")), lanes)
			if err != nil {
				return err
			}
			p99 := quantile(res.lat, 0.99) // failures are +Inf: they miss the limit
			m[fmt.Sprintf("loadgen.p99_ms.rate-%d", rate)] = p99
			if p99 <= ms(latencyLimit) && !res.growing(float64(rate), len(lanes)) {
				maxRate = rate
			}
		}
		m["e2e.evaluate_max_rps"] = float64(maxRate)
	}
	if rec != nil {
		n := float64(stats.traced.Load())
		for _, s := range []string{"resolve", "cache_lookup", "queue_wait", "evaluate"} {
			sum, _ := rec.totalOf("serve." + s)
			m["serve."+s+"_us"] = us(sum) / n
		}
		m["serve.outside_handler_us"] = float64(stats.outsideNs.Load()) / 1e3 / n
		e.directCalls(rec, m)
	}
	return nil
}

// rungLength is how long each ladder rate runs.
func (e *evalEnv) rungLength() time.Duration {
	d := e.r.length / 8
	if d < 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// directCalls times the nn, arch and faults public functions on the
// request mix, one span around each call.
func (e *evalEnv) directCalls(rec *recorder, m map[string]float64) {
	lane := rec.newLane(false)
	p := e.r.phase("evaluate.direct-calls")
	timeIt := func(name string, f func() error) {
		start := time.Now()
		err := f()
		rec.add(name, lane, start, time.Now())
		if err != nil {
			e.r.mismatch("%s: %v", name, err)
		}
		p.done(err == nil)
	}
	n := 2000
	if n > len(e.seq) {
		n = len(e.seq)
	}
	for k := 0; k < n; k++ {
		var req serve.EvaluateRequest
		if err := json.Unmarshal(e.items[e.seq[k]].body, &req); err != nil {
			e.r.mismatch("direct calls: %v", err)
			p.done(false)
			continue
		}
		it, ok := resolveItem(req)
		if !ok {
			e.r.mismatch("direct calls: %s no longer resolves", e.items[e.seq[k]].body)
			p.done(false)
			continue
		}
		if it.spec != nil {
			timeIt("nn.parse_network", func() error { _, err := nn.ParseNetwork(it.spec); return err })
		}
		timeIt("arch.config_hash", func() error { _, err := arch.ConfigHash(it.cfg); return err })
		for _, net := range it.nets {
			timeIt("nn.network_hash", func() error { _, err := nn.NetworkHash(net); return err })
			timeIt("arch.evaluate", func() error { _, err := arch.Evaluate(it.cfg, net); return err })
		}
		if it.fs != nil {
			timeIt("faults.degrade", func() error { _, _, err := it.fs.Degrade(it.cfg); return err })
		}
	}
	for _, name := range []string{"nn.network_hash", "nn.parse_network", "arch.config_hash", "arch.evaluate", "faults.degrade"} {
		sum, count := rec.totalOf(name)
		m[name+"_us"] = ratio(us(sum), float64(count))
	}
}
