package serveclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"refocus/internal/nn"
	"refocus/internal/opt"
	"refocus/internal/robust"
	"refocus/internal/serve"
)

// testClient builds a client against handler with fast test timings.
func testClient(t *testing.T, handler http.Handler, mutate func(*Config)) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	cfg := Config{
		BaseURL:     ts.URL,
		MaxRetries:  4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

// TestRetriesRecoverTransientFailures: a server that fails twice with
// 503 then succeeds is invisible to the caller, and the stats record
// the retries it took.
func TestRetriesRecoverTransientFailures(t *testing.T) {
	var calls atomic.Int64
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"Config": "fb"}`)) //nolint:errcheck
	}), nil)
	resp, err := c.Evaluate(context.Background(), serve.EvaluateRequest{Preset: "fb"})
	if err != nil {
		t.Fatalf("client failed to hide transient errors: %v", err)
	}
	if resp.Config != "fb" {
		t.Errorf("response lost: %+v", resp)
	}
	st := c.Stats()
	if st.Requests != 1 || st.Retries != 2 {
		t.Errorf("stats %+v, want Requests=1 Retries=2", st)
	}
}

// TestShedCountedAndRetried: 429 responses are retried (honoring
// Retry-After) and counted as Shed.
func TestShedCountedAndRetried(t *testing.T) {
	var calls atomic.Int64
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"Error": "serve: worker pool saturated", "Status": 429}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`)) //nolint:errcheck
	}), nil)
	if _, err := c.Evaluate(context.Background(), serve.EvaluateRequest{Preset: "fb"}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Shed != 1 || st.Retries != 1 {
		t.Errorf("stats %+v, want Shed=1 Retries=1", st)
	}
}

// TestPermanentErrorsNotRetried: a 400 comes back once, as a
// StatusError carrying the server's message, with no retries burned.
func TestPermanentErrorsNotRetried(t *testing.T) {
	var calls atomic.Int64
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"Error": "serve: unknown preset \"tpu\"", "Status": 400}`, http.StatusBadRequest)
	}), nil)
	_, err := c.Evaluate(context.Background(), serve.EvaluateRequest{Preset: "tpu"})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("want StatusError 400, got %v", err)
	}
	if se.Message == "" || calls.Load() != 1 {
		t.Errorf("message %q after %d calls; want the server's text after exactly 1", se.Message, calls.Load())
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("permanent error burned retries: %+v", st)
	}
}

// TestCircuitBreaker: consecutive failures open the circuit (calls fail
// fast without touching the server), and a successful probe after the
// cooldown closes it again.
func TestCircuitBreaker(t *testing.T) {
	var calls atomic.Int64
	var healthy atomic.Bool
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			w.Write([]byte(`{}`)) //nolint:errcheck
			return
		}
		http.Error(w, "down", http.StatusInternalServerError)
	}), func(cfg *Config) {
		cfg.MaxRetries = -1 // no retries: each call is one attempt
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = 50 * time.Millisecond
	})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Evaluate(ctx, serve.EvaluateRequest{Preset: "fb"}); err == nil {
			t.Fatal("dead server answered")
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker did not open after threshold: %+v", st)
	}
	atServer := calls.Load()
	_, err := c.Evaluate(ctx, serve.EvaluateRequest{Preset: "fb"})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit let a call through: %v", err)
	}
	if calls.Load() != atServer {
		t.Error("breaker reject still reached the server")
	}
	if st := c.Stats(); st.BreakerRejects != 1 {
		t.Errorf("stats %+v, want BreakerRejects=1", st)
	}

	healthy.Store(true)
	time.Sleep(60 * time.Millisecond) // past the cooldown: next call probes
	if _, err := c.Evaluate(ctx, serve.EvaluateRequest{Preset: "fb"}); err != nil {
		t.Fatalf("half-open probe failed against a healthy server: %v", err)
	}
	if _, err := c.Evaluate(ctx, serve.EvaluateRequest{Preset: "fb"}); err != nil {
		t.Fatalf("circuit did not close after the probe: %v", err)
	}
}

// TestContextCancelStopsBackoff: cancellation during a backoff sleep
// surfaces promptly instead of burning the remaining retries.
func TestContextCancelStopsBackoff(t *testing.T) {
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}), func(cfg *Config) {
		cfg.BaseBackoff = 10 * time.Second
		cfg.MaxBackoff = 10 * time.Second
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Evaluate(ctx, serve.EvaluateRequest{Preset: "fb"})
	if err == nil {
		t.Fatal("canceled call succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("cancellation took %v; backoff ignored the context", time.Since(start))
	}
}

// TestBackoffNeverSleepsPastDeadline: a backoff the caller's deadline
// cannot outlive fails immediately with the deadline error, instead of
// sleeping out the full Retry-After only to time out afterwards. The
// server shed with Retry-After: 5, so a client that waited would burn
// ~5s against a 50ms deadline.
func TestBackoffNeverSleepsPastDeadline(t *testing.T) {
	c, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Evaluate(ctx, serve.EvaluateRequest{Preset: "fb"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a permanently shedding server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should carry the deadline cause, got %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("call took %v against a 50ms deadline; backoff slept past it", elapsed)
	}
}

// TestSleepSkipsDoomedWait: sleep itself refuses a wait longer than the
// remaining deadline budget, without blocking at all.
func TestSleepSkipsDoomedWait(t *testing.T) {
	c, err := New(Config{BaseURL: "http://x", BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := c.sleep(ctx, 0, 10*time.Second); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("doomed sleep returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 10*time.Millisecond {
		t.Errorf("doomed sleep blocked %v before refusing", time.Since(start))
	}
	// A wait that fits the budget still happens.
	if err := c.sleep(ctx, 0, time.Millisecond); err != nil {
		t.Fatalf("affordable sleep failed: %v", err)
	}
}

// TestBackoffDeterministicAndBounded: the jitter sequence replays under
// one seed and never exceeds the configured cap.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	mk := func() *Client {
		c, err := New(Config{BaseURL: "http://x", Seed: 9, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	for i := 0; i < 32; i++ {
		attempt := i % 8
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("seeded backoff diverged at draw %d: %v vs %v", i, da, db)
		}
		if da < 0 || da > 8*time.Millisecond {
			t.Fatalf("backoff %v outside [0, MaxBackoff]", da)
		}
	}
}

// TestAgainstRealServer: the client round-trips against the actual
// serve handler — evaluate, then metrics.
func TestAgainstRealServer(t *testing.T) {
	srv := serve.New(serve.Config{})
	c, _ := testClient(t, srv.Handler(), nil)
	resp, err := c.Evaluate(context.Background(), serve.EvaluateRequest{Preset: "fb", Network: "ResNet-18"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Reports) != 1 || resp.Reports[0].FPS <= 0 {
		t.Fatalf("reports: %+v", resp.Reports)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Evaluations != 1 {
		t.Errorf("metrics over client: %+v", snap)
	}
}

// TestChaoticServerFullyRecovered is the package's reason to exist: a
// serve instance injecting failures at 40% must look perfect through
// the retrying client.
func TestChaoticServerFullyRecovered(t *testing.T) {
	srv := serve.New(serve.Config{Chaos: serve.ChaosConfig{FailProb: 0.4, Seed: 3}})
	c, _ := testClient(t, srv.Handler(), func(cfg *Config) {
		cfg.MaxRetries = 8
	})
	for i := 0; i < 8; i++ {
		if _, err := c.Evaluate(context.Background(), serve.EvaluateRequest{Preset: "fb", Network: "ResNet-18"}); err != nil {
			t.Fatalf("request %d leaked a chaos failure: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Retries == 0 {
		t.Error("chaos at 40% never forced a retry — injection suspiciously quiet")
	}
	if snap, err := c.Metrics(context.Background()); err != nil || snap.ChaosInjected == 0 {
		t.Errorf("server chaos counter: %+v (%v)", snap, err)
	}
}

// TestNewRequiresBaseURL: config validation.
func TestNewRequiresBaseURL(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty BaseURL accepted")
	}
}

// TestNetworksAgainstRealServer: the client's workload-discovery call
// lists the registry through a live handler.
func TestNetworksAgainstRealServer(t *testing.T) {
	srv := serve.New(serve.Config{})
	c, _ := testClient(t, srv.Handler(), nil)
	resp, err := c.Networks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Networks) != len(nn.Names()) {
		t.Fatalf("client saw %d networks, registry has %d", len(resp.Networks), len(nn.Names()))
	}
	byName := map[string]serve.NetworkInfo{}
	for _, info := range resp.Networks {
		byName[info.Name] = info
	}
	bert, ok := byName["BERT-base"]
	if !ok {
		t.Fatal("BERT-base missing from client network listing")
	}
	if bert.Hash != nn.MustNetworkHash(nn.BERTBase()) {
		t.Errorf("BERT-base hash drifted: %s", bert.Hash)
	}
	if bert.GMACs < 11 || bert.GMACs > 12 {
		t.Errorf("BERT-base GMACs = %.2f, want ≈11.2", bert.GMACs)
	}
}

// TestOptimizeAndRobustnessRoundTrip drives the job client methods
// against a real worker for both kinds: start, poll by ID, and confirm
// the terminal statuses come back decoded.
func TestOptimizeAndRobustnessRoundTrip(t *testing.T) {
	s := serve.New(serve.Config{})
	t.Cleanup(s.Close)
	c, _ := testClient(t, s.Handler(), nil)
	ctx := context.Background()

	var ost opt.StatusResponse
	err := c.StartJob(ctx, "/v1/optimize", opt.Spec{
		Preset: "fb", Network: "AlexNet", Strategy: "random",
		Generations: 2, Population: 4, Seed: 7,
	}, &ost)
	if err != nil {
		t.Fatalf("StartJob(optimize): %v", err)
	}
	for ost.Status == opt.StatusRunning {
		time.Sleep(10 * time.Millisecond)
		id := ost.ID
		ost = opt.StatusResponse{}
		if err := c.JobStatus(ctx, "/v1/optimize", id, &ost); err != nil {
			t.Fatalf("JobStatus(optimize): %v", err)
		}
	}
	if ost.Status != opt.StatusDone || len(ost.Front) == 0 {
		t.Errorf("search ended %q with %d front points", ost.Status, len(ost.Front))
	}

	var rst robust.StatusResponse
	err = c.StartJob(ctx, "/v1/robustness", robust.Spec{
		Preset: "fb", Network: "AlexNet", Severities: []float64{0}, Trials: 2, Seed: 7,
	}, &rst)
	if err != nil {
		t.Fatalf("StartJob(robustness): %v", err)
	}
	for rst.Status == robust.StatusRunning {
		time.Sleep(10 * time.Millisecond)
		id := rst.ID
		rst = robust.StatusResponse{}
		if err := c.JobStatus(ctx, "/v1/robustness", id, &rst); err != nil {
			t.Fatalf("JobStatus(robustness): %v", err)
		}
	}
	if rst.Status != robust.StatusDone || len(rst.Frontier) == 0 {
		t.Errorf("campaign ended %q with %d frontier points", rst.Status, len(rst.Frontier))
	}
}
