package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer starts the service on an httptest listener and returns both
// the Server (for direct inspection) and the test client base URL.
func testServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// post sends body to url and returns the status and response bytes.
func post(t *testing.T, url, body string) (int, []byte) {
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
	return resp.StatusCode, data
}

// get fetches url and returns the status and response bytes.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestHealthz(t *testing.T) {
	_, url := testServer(t, Config{})
	status, body := get(t, url+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz: %d %s", status, body)
	}
}

func TestPresetsVocabulary(t *testing.T) {
	_, url := testServer(t, Config{})
	status, body := get(t, url+"/v1/presets")
	if status != http.StatusOK {
		t.Fatalf("presets: %d %s", status, body)
	}
	var resp PresetsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Presets) < 5 || len(resp.Networks) < 5 {
		t.Errorf("vocabulary too small: %d presets, %d networks", len(resp.Presets), len(resp.Networks))
	}
	if !strings.Contains(string(body), "ReFOCUS-FB") || !strings.Contains(string(body), "ResNet-50") {
		t.Errorf("vocabulary missing expected names:\n%s", body)
	}
}

// TestEvaluateAndCacheHit is the acceptance-criterion path: a second
// identical POST /v1/evaluate is served from cache — hit counter visible
// in the metrics — with a bit-identical report to the first.
func TestEvaluateAndCacheHit(t *testing.T) {
	s, url := testServer(t, Config{})
	req := `{"Preset": "fb", "Network": "ResNet-18"}`

	status, first := post(t, url+"/v1/evaluate", req)
	if status != http.StatusOK {
		t.Fatalf("first evaluate: %d %s", status, first)
	}
	var r1 EvaluateResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.CacheMisses != 1 || r1.CacheHits != 0 {
		t.Errorf("first request: hits=%d misses=%d, want 0/1", r1.CacheHits, r1.CacheMisses)
	}
	if len(r1.Reports) != 1 || r1.Reports[0].FPS <= 0 {
		t.Fatalf("first request reports: %+v", r1.Reports)
	}

	status, second := post(t, url+"/v1/evaluate", req)
	if status != http.StatusOK {
		t.Fatalf("second evaluate: %d %s", status, second)
	}
	var r2 EvaluateResponse
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.CacheHits != 1 || r2.CacheMisses != 0 {
		t.Errorf("second request: hits=%d misses=%d, want 1/0", r2.CacheHits, r2.CacheMisses)
	}

	rep1, _ := json.Marshal(r1.Reports)
	rep2, _ := json.Marshal(r2.Reports)
	if !bytes.Equal(rep1, rep2) {
		t.Errorf("cached report not bit-identical:\n%s\nvs\n%s", rep1, rep2)
	}

	snap := s.MetricsSnapshot()
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 || snap.Cache.Entries != 1 {
		t.Errorf("metrics cache counters: %+v", snap.Cache)
	}
	if snap.Evaluations != 1 {
		t.Errorf("evaluations %d, want 1 (second request must not re-evaluate)", snap.Evaluations)
	}
}

func TestEvaluateDefaultsToAllNetworks(t *testing.T) {
	_, url := testServer(t, Config{})
	status, body := post(t, url+"/v1/evaluate", `{"Preset": "ff"}`)
	if status != http.StatusOK {
		t.Fatalf("evaluate: %d %s", status, body)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Reports) < 5 || len(resp.Networks) != len(resp.Reports) {
		t.Errorf("empty Network should mean all benchmarks, got %d reports", len(resp.Reports))
	}
}

func TestEvaluateConfigSchemaWithOverrides(t *testing.T) {
	_, url := testServer(t, Config{})
	req := `{"Config": {"Base": "fb", "Name": "FB-M32", "M": 32}, "Overrides": {"NRFCU": 8}, "Network": "ResNet-18"}`
	status, body := post(t, url+"/v1/evaluate", req)
	if status != http.StatusOK {
		t.Fatalf("evaluate: %d %s", status, body)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Config != "FB-M32" {
		t.Errorf("resolved config %q, want FB-M32", resp.Config)
	}
	if len(resp.ConfigHash) != 64 {
		t.Errorf("missing config hash: %q", resp.ConfigHash)
	}
}

// TestCacheKeyStableAcrossFieldOrdering: the same design point sent with
// different JSON field orderings (request level and config level) must
// land on the same cache entry.
func TestCacheKeyStableAcrossFieldOrdering(t *testing.T) {
	_, url := testServer(t, Config{})
	a := `{"Config": {"Base": "fb", "M": 32, "Name": "point"}, "Network": "ResNet-18"}`
	b := `{"Network": "ResNet-18", "Config": {"Name": "point", "M": 32, "Base": "fb"}}`

	status, first := post(t, url+"/v1/evaluate", a)
	if status != http.StatusOK {
		t.Fatalf("first: %d %s", status, first)
	}
	status, second := post(t, url+"/v1/evaluate", b)
	if status != http.StatusOK {
		t.Fatalf("second: %d %s", status, second)
	}
	var r1, r2 EvaluateResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.ConfigHash != r2.ConfigHash {
		t.Errorf("field ordering changed the hash: %s vs %s", r1.ConfigHash, r2.ConfigHash)
	}
	if r2.CacheHits != 1 || r2.CacheMisses != 0 {
		t.Errorf("reordered request missed the cache: hits=%d misses=%d", r2.CacheHits, r2.CacheMisses)
	}
}

// TestEvaluateErrorPaths: every malformed or invalid request comes back
// as a structured 400 whose Error preserves the pipeline's field-naming
// messages.
func TestEvaluateErrorPaths(t *testing.T) {
	_, url := testServer(t, Config{})
	cases := []struct {
		name, body, wantInError string
	}{
		{"malformed JSON", `{"Preset": `, "parsing request"},
		{"unknown request field", `{"Preset": "fb", "Netwrk": "ResNet-18"}`, "Netwrk"},
		{"neither preset nor config", `{"Network": "ResNet-18"}`, "Preset or"},
		{"both preset and config", `{"Preset": "fb", "Config": {"Base": "ff"}}`, "pick one"},
		{"unknown preset", `{"Preset": "tpu"}`, "tpu"},
		{"unknown network", `{"Preset": "fb", "Network": "LeNet"}`, "LeNet"},
		{"unknown config field", `{"Config": {"Base": "fb", "NRFCUU": 20}}`, "NRFCUU"},
		{"unknown override field", `{"Preset": "fb", "Overrides": {"Warp": 9}}`, "Warp"},
		{"validation names the field", `{"Preset": "fb", "Overrides": {"Reuses": 0}}`, "Reuses"},
		{"trailing garbage", `{"Preset": "fb"} extra`, "trailing"},
	}
	for _, tc := range cases {
		status, body := post(t, url+"/v1/evaluate", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, status, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Errorf("%s: error payload is not structured: %s", tc.name, body)
			continue
		}
		if er.Status != http.StatusBadRequest || !strings.Contains(er.Error, tc.wantInError) {
			t.Errorf("%s: error %+v should mention %q", tc.name, er, tc.wantInError)
		}
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, url := testServer(t, Config{MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"Preset": "fb", "Network": %q}`, strings.Repeat("x", 200))
	status, body := post(t, url+"/v1/evaluate", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized-body error payload: %s", body)
	}
}

// TestCanceledRequestContext: a dead request never reaches the evaluator.
func TestCanceledRequestContext(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.evaluatePoint(ctx, EvaluateRequest{Preset: "fb", Network: "ResNet-18"})
	if err == nil {
		t.Fatal("canceled context evaluated anyway")
	}
	if StatusOf(err) != http.StatusServiceUnavailable {
		t.Errorf("canceled context maps to %d, want 503", StatusOf(err))
	}
	if s.MetricsSnapshot().Evaluations != 0 {
		t.Error("canceled request still ran an evaluation")
	}
}

// TestWorkerSlotTimeout: with the single worker slot held, a cache miss
// times out in the queue and reports 503 rather than hanging.
func TestWorkerSlotTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	s.slots <- struct{}{} // occupy the only slot
	defer func() { <-s.slots }()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := s.evaluatePoint(ctx, EvaluateRequest{Preset: "fb", Network: "ResNet-18"})
	if err == nil {
		t.Fatal("saturated pool accepted work")
	}
	if StatusOf(err) != http.StatusServiceUnavailable {
		t.Errorf("queue timeout maps to %d, want 503", StatusOf(err))
	}
	if !strings.Contains(err.Error(), "worker slot") {
		t.Errorf("error should say it was queued: %v", err)
	}
}

func TestSweep(t *testing.T) {
	s, url := testServer(t, Config{})
	req := `{"Points": [
		{"Preset": "fb", "Network": "ResNet-18"},
		{"Preset": "warp-drive"},
		{"Config": {"Base": "ff", "Name": "swept", "M": 32}, "Network": "AlexNet"}
	]}`
	status, body := post(t, url+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 3 {
		t.Fatalf("got %d point results, want 3", len(resp.Points))
	}
	if resp.Points[0].Error != "" || len(resp.Points[0].Reports) != 1 {
		t.Errorf("point 0: %+v", resp.Points[0])
	}
	if !strings.Contains(resp.Points[1].Error, "warp-drive") {
		t.Errorf("point 1 should fail naming the preset: %+v", resp.Points[1])
	}
	if resp.Points[2].Config != "swept" || len(resp.Points[2].Reports) != 1 {
		t.Errorf("point 2: %+v", resp.Points[2])
	}
	// A repeat of the sweep is served fully from cache.
	status, body = post(t, url+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("repeat sweep: %d %s", status, body)
	}
	var again SweepResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Points[0].CacheHits != 1 || again.Points[2].CacheHits != 1 {
		t.Errorf("repeat sweep missed the cache: %+v, %+v", again.Points[0], again.Points[2])
	}
	if got := s.MetricsSnapshot().Evaluations; got != 2 {
		t.Errorf("evaluations %d, want 2 (one per valid point, once)", got)
	}
}

func TestSweepRejectsEmptyBatch(t *testing.T) {
	_, url := testServer(t, Config{})
	status, body := post(t, url+"/v1/sweep", `{"Points": []}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "no Points") {
		t.Errorf("empty sweep: %d %s", status, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, url := testServer(t, Config{})
	post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`)
	post(t, url+"/v1/evaluate", `{"Preset": "nope"}`)
	status, body := get(t, url+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, body)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	ep, ok := snap.Endpoints["/v1/evaluate"]
	if !ok {
		t.Fatalf("metrics missing /v1/evaluate: %s", body)
	}
	if ep.Requests != 2 || ep.Errors != 1 {
		t.Errorf("evaluate endpoint stats: %+v", ep)
	}
	var histTotal int64
	for _, n := range ep.Latency {
		histTotal += n
	}
	if histTotal != ep.Requests {
		t.Errorf("latency histogram sums to %d, want %d", histTotal, ep.Requests)
	}
	if snap.Cache.Capacity <= 0 {
		t.Errorf("cache capacity missing from snapshot: %+v", snap.Cache)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, url := testServer(t, Config{})
	status, _ := get(t, url+"/v1/evaluate")
	if status != http.StatusMethodNotAllowed {
		t.Errorf("GET on evaluate: %d, want 405", status)
	}
}

// TestConcurrentRequests hammers the service from many goroutines — the
// CI race detector turns any cache/metrics/pool race into a failure.
func TestConcurrentRequests(t *testing.T) {
	_, url := testServer(t, Config{Workers: 2, CacheSize: 8})
	bodies := []string{
		`{"Preset": "fb", "Network": "ResNet-18"}`,
		`{"Preset": "ff", "Network": "AlexNet"}`,
		`{"Preset": "baseline", "Network": "ResNet-18"}`,
		`{"Config": {"Base": "fb", "Name": "c1", "M": 32}, "Network": "ResNet-18"}`,
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := post(t, url+"/v1/evaluate", bodies[i%len(bodies)])
			if status != http.StatusOK {
				errs <- fmt.Sprintf("request %d: %d %s", i, status, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// syncBuffer is an io.Writer safe for concurrent writes and reads — the
// shutdown test reads the log while ListenAndServe is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

// Write appends under the lock.
func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// String snapshots the contents under the lock.
func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestListenAndServeGracefulShutdown: the server comes up on an
// ephemeral port, serves, and drains cleanly when the context dies (the
// SIGTERM path of cmd/refocus-serve).
func TestListenAndServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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
		t.Fatalf("server never announced its address: %q", out.String())
	}

	status, _ := get(t, base+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz over real listener: %d", status)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("shutdown not announced: %q", out.String())
	}
}

func TestListenAndServeBadAddr(t *testing.T) {
	if err := New(Config{}).ListenAndServe(context.Background(), "256.0.0.1:bogus", io.Discard); err == nil {
		t.Error("bad address accepted")
	}
}
