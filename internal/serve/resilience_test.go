package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// postResp is post plus the response headers — shed and chaos tests need
// Retry-After and the chaos marker, not just status and body.
func postResp(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestLoadShedding: with the single worker jammed and the one queue spot
// plus the jammed worker's spot taken by waiters, the next arrival is
// shed immediately with 429 + Retry-After — the server answers fast
// instead of hanging until timeout — and every admitted request still
// completes once the jam clears.
func TestLoadShedding(t *testing.T) {
	s, url := testServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: 20 * time.Second})
	s.slots <- struct{}{} // jam the only worker slot

	// Workers+QueueDepth = 2 requests may wait; use distinct design
	// points so each is a cache miss that needs a slot.
	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"Config": {"Base": "fb", "Name": "shed-%d"}, "Network": "ResNet-18"}`, i)
			resp, err := http.Post(url+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.admitted.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.admitted.Load() != 2 {
		t.Fatalf("waiters never queued: admitted=%d", s.admitted.Load())
	}

	resp, body := postResp(t, url+"/v1/evaluate",
		`{"Config": {"Base": "fb", "Name": "shed-probe"}, "Network": "ResNet-18"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload answered %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "retry") {
		t.Errorf("shed error payload: %s", body)
	}
	if got := s.MetricsSnapshot().Shed; got < 1 {
		t.Errorf("Shed metric %d, want >= 1", got)
	}

	<-s.slots // clear the jam; the two waiters drain through the pool
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("admitted request %d finished with %d, want 200", i, st)
		}
	}
	if got := s.admitted.Load(); got != 0 {
		t.Errorf("admitted gauge did not return to 0: %d", got)
	}
}

// TestChaosInjection: FailProb 1 fails every evaluation request with a
// marked 503 + Retry-After, counts it in the metrics, and leaves the
// health endpoint (not wrapped) untouched.
func TestChaosInjection(t *testing.T) {
	s, url := testServer(t, Config{Chaos: ChaosConfig{FailProb: 1, Seed: 7}})
	resp, body := postResp(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("chaos at p=1 answered %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get(chaosHeader) != "injected" {
		t.Error("injected failure not marked with the chaos header")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected failure missing Retry-After")
	}
	if !strings.Contains(string(body), "chaos") {
		t.Errorf("injected error should say it is chaos: %s", body)
	}
	snap := s.MetricsSnapshot()
	if snap.ChaosInjected != 1 {
		t.Errorf("ChaosInjected %d, want 1", snap.ChaosInjected)
	}
	if ep := snap.Endpoints["/v1/evaluate"]; ep.Errors != 1 {
		t.Errorf("injected failure missing from endpoint error count: %+v", ep)
	}
	if status, _ := get(t, url+"/healthz"); status != http.StatusOK {
		t.Errorf("chaos broke the liveness probe: %d", status)
	}
}

// TestChaosLatencyInjection: SlowProb 1 holds the worker slot for the
// configured delay on every evaluation and counts it.
func TestChaosLatencyInjection(t *testing.T) {
	s, url := testServer(t, Config{Chaos: ChaosConfig{SlowProb: 1, SlowDelay: 10 * time.Millisecond, Seed: 1}})
	start := time.Now()
	status, body := post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	if status != http.StatusOK {
		t.Fatalf("slowed evaluate: %d %s", status, body)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("evaluation took %v, expected >= the injected 10ms", d)
	}
	if got := s.MetricsSnapshot().ChaosSlowed; got != 1 {
		t.Errorf("ChaosSlowed %d, want 1", got)
	}
	// A cache hit never touches a worker slot, so nothing to slow.
	post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	if got := s.MetricsSnapshot().ChaosSlowed; got != 1 {
		t.Errorf("cache hit was slowed: ChaosSlowed %d", got)
	}
}

// TestChaosDefaultOff: the zero config never injects — chaos is strictly
// opt-in.
func TestChaosDefaultOff(t *testing.T) {
	s, url := testServer(t, Config{})
	if s.chaos != nil {
		t.Fatal("zero config built a chaos injector")
	}
	status, body := post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	if status != http.StatusOK {
		t.Fatalf("default config evaluate: %d %s", status, body)
	}
	if got := s.MetricsSnapshot().ChaosInjected; got != 0 {
		t.Errorf("ChaosInjected %d with chaos off", got)
	}
}

// TestChaosDeterministic: the same seed replays the same injection
// sequence, so a failed chaos run can be reproduced exactly.
func TestChaosDeterministic(t *testing.T) {
	a := newChaosInjector(ChaosConfig{FailProb: 0.5, Seed: 42})
	b := newChaosInjector(ChaosConfig{FailProb: 0.5, Seed: 42})
	for i := 0; i < 128; i++ {
		if a.shouldFail() != b.shouldFail() {
			t.Fatalf("same seed diverged at flip %d", i)
		}
	}
	if (*chaosInjector)(nil).shouldFail() {
		t.Error("nil injector injected a failure")
	}
	if newChaosInjector(ChaosConfig{FailProb: 2, Seed: 1}).failProb != 1 {
		t.Error("FailProb not clamped to 1")
	}
}

// TestEvaluateWithFaults: a request carrying a fault set gets the
// degraded machine's honest numbers plus the remapping record, and its
// cache entries never alias the healthy ones.
func TestEvaluateWithFaults(t *testing.T) {
	_, url := testServer(t, Config{})
	healthy := `{"Preset": "fb", "Network": "ResNet-50"}`
	faulted := `{"Preset": "fb", "Network": "ResNet-50", "Faults": {"Name": "2dead-1lambda", "DeadRFCUs": [3, 11], "DeadWavelengths": {"5": [1]}}}`

	status, body := post(t, url+"/v1/evaluate", healthy)
	if status != http.StatusOK {
		t.Fatalf("healthy evaluate: %d %s", status, body)
	}
	var h EvaluateResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Degradation != nil {
		t.Errorf("healthy request carries a Degradation: %+v", h.Degradation)
	}

	status, body = post(t, url+"/v1/evaluate", faulted)
	if status != http.StatusOK {
		t.Fatalf("faulted evaluate: %d %s", status, body)
	}
	var f EvaluateResponse
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	if f.CacheHits != 0 || f.CacheMisses != 1 {
		t.Errorf("faulted request aliased the healthy cache entry: hits=%d misses=%d", f.CacheHits, f.CacheMisses)
	}
	if f.Degradation == nil || f.Degradation.HealthyRFCUs != 14 || f.Degradation.EffectiveLambda != 1 {
		t.Fatalf("degradation record wrong: %+v", f.Degradation)
	}
	if f.Reports[0].FPS >= h.Reports[0].FPS {
		t.Errorf("degraded FPS %g not below healthy %g", f.Reports[0].FPS, h.Reports[0].FPS)
	}

	// A repeat is a cache hit that still reports the degradation.
	status, body = post(t, url+"/v1/evaluate", faulted)
	if status != http.StatusOK {
		t.Fatalf("repeat faulted evaluate: %d %s", status, body)
	}
	var f2 EvaluateResponse
	if err := json.Unmarshal(body, &f2); err != nil {
		t.Fatal(err)
	}
	if f2.CacheHits != 1 || f2.CacheMisses != 0 {
		t.Errorf("repeat faulted request missed: hits=%d misses=%d", f2.CacheHits, f2.CacheMisses)
	}
	if f2.Degradation == nil || f2.Reports[0].FPS != f.Reports[0].FPS {
		t.Errorf("cached degraded report inconsistent: %+v", f2)
	}

	// An explicitly zero fault set is the healthy machine: same cache
	// entry, no degradation block.
	status, body = post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-50", "Faults": {}}`)
	if status != http.StatusOK {
		t.Fatalf("zero-faults evaluate: %d %s", status, body)
	}
	var z EvaluateResponse
	if err := json.Unmarshal(body, &z); err != nil {
		t.Fatal(err)
	}
	if z.CacheHits != 1 || z.Degradation != nil {
		t.Errorf("zero fault set should hit the healthy entry: hits=%d deg=%+v", z.CacheHits, z.Degradation)
	}
}

// TestEvaluateFaultErrors: invalid, unknown-field, and nothing-runs
// fault sets all come back as structured 400s naming the problem.
func TestEvaluateFaultErrors(t *testing.T) {
	_, url := testServer(t, Config{})
	cases := []struct {
		name, body, wantInError string
	}{
		{"out-of-range unit", `{"Preset": "fb", "Faults": {"DeadRFCUs": [99]}}`, "outside"},
		{"unknown fault field", `{"Preset": "fb", "Faults": {"DeadLasers": [1]}}`, "DeadLasers"},
		{"duplicate unit", `{"Preset": "fb", "Faults": {"DeadRFCUs": [2, 2]}}`, "twice"},
		{"nothing runs", `{"Preset": "fb", "Faults": {"DeadRFCUs": [0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]}}`, "no healthy"},
	}
	for _, tc := range cases {
		status, body := post(t, url+"/v1/evaluate", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, status, body)
			continue
		}
		if !strings.Contains(string(body), tc.wantInError) {
			t.Errorf("%s: error should mention %q: %s", tc.name, tc.wantInError, body)
		}
	}
}

// TestShutdownLeaksNoGoroutines: a full serve lifecycle — boot, traffic,
// graceful shutdown — returns the process to its pre-server goroutine
// count (small slack for the runtime and idle HTTP client conns).
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	runtime.GC()
	before := runtime.NumGoroutine()

	stop := bootServer(t, func(base string) {
		if status, _ := get(t, base+"/healthz"); status != http.StatusOK {
			t.Errorf("healthz during leak test: %d", status)
		}
		post(t, base+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	})
	stop()

	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
		http.DefaultClient.CloseIdleConnections()
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after shutdown: before=%d after=%d\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// bootServer boots ListenAndServe on an ephemeral port, runs body with
// the base URL, and returns a stop func that cancels the context and
// waits for the server to drain completely.
func bootServer(t *testing.T, body func(base string)) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() { errc <- New(Config{}).ListenAndServe(ctx, "127.0.0.1:0", out) }()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "http://"):]
			base = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		cancel()
		t.Fatalf("server never announced its address: %q", out.String())
	}
	body(base)
	return func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("shutdown error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	}
}
