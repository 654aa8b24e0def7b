package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refocus/internal/serve"
	"refocus/internal/serveclient"
)

// testCluster boots n real worker shards and a coordinator over them,
// returning the coordinator plus its URL and the shard servers for
// direct inspection (index-aligned with Config.Shards).
func testCluster(t *testing.T, n int, mutate func(*Config)) (*Coordinator, string, []*serve.Server, []*httptest.Server) {
	t.Helper()
	shards := make([]*serve.Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = serve.New(serve.Config{})
		tss[i] = httptest.NewServer(shards[i].Handler())
		t.Cleanup(tss[i].Close)
		urls[i] = tss[i].URL
	}
	cfg := Config{
		Shards:     urls,
		HedgeDelay: time.Second, // far past an analytic evaluation: no accidental hedges
		Client: serveclient.Config{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	return coord, cts.URL, shards, tss
}

// sweepBody builds a sweep of n distinct design points (distinct names →
// distinct cache keys → spread across the ring).
func sweepBody(n int) string {
	points := make([]string, n)
	for i := range points {
		points[i] = fmt.Sprintf(`{"Preset": "fb", "Network": "ResNet-18", "Overrides": {"Name": "pt-%d"}}`, i)
	}
	return `{"Points": [` + strings.Join(points, ",") + `]}`
}

// postJSON posts body and returns status + response bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
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

// TestCoordinatorSweepScatterGather: a sweep through the coordinator
// succeeds point-for-point, spreads across more than one shard, and the
// routing metrics account for every point.
func TestCoordinatorSweepScatterGather(t *testing.T) {
	coord, url, shards, _ := testCluster(t, 3, nil)
	const n = 30
	status, body := postJSON(t, url+"/v1/sweep", sweepBody(n))
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, body)
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != n {
		t.Fatalf("got %d points, want %d", len(resp.Points), n)
	}
	for i, p := range resp.Points {
		if p.Error != "" {
			t.Errorf("point %d failed: %s", i, p.Error)
		}
		if want := fmt.Sprintf("pt-%d", i); p.Config != want {
			t.Errorf("point %d answered for %q (order lost?)", i, p.Config)
		}
	}
	snap := coord.MetricsSnapshot()
	if snap.Points != n || snap.PointErrors != 0 {
		t.Errorf("snapshot %+v, want %d points / 0 errors", snap, n)
	}
	var routed int64
	busy := 0
	for _, st := range snap.Shards {
		routed += st.Routed
		if st.Routed > 0 {
			busy++
		}
	}
	if routed != n {
		t.Errorf("per-shard Routed sums to %d, want %d", routed, n)
	}
	if busy < 2 {
		t.Errorf("only %d shards saw traffic — the ring is not spreading", busy)
	}
	// The work itself landed on the shards, not the coordinator.
	var evals int64
	for _, s := range shards {
		evals += s.MetricsSnapshot().Evaluations
	}
	if evals != n {
		t.Errorf("shards evaluated %d points, want %d", evals, n)
	}
}

// TestCoordinatorDeadShardFailover: with one shard down, every point
// still answers — the breaker makes the dead shard fail fast and the
// ring's successor picks the point up — and the failovers are
// metrics-visible with zero client-visible errors.
func TestCoordinatorDeadShardFailover(t *testing.T) {
	coord, url, _, tss := testCluster(t, 3, nil)
	tss[2].Close() // shard 3 is now connection-refused
	const n = 30
	status, body := postJSON(t, url+"/v1/sweep", sweepBody(n))
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, body)
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, p := range resp.Points {
		if p.Error != "" {
			lost++
		}
	}
	if lost != 0 {
		t.Errorf("%d/%d points lost to a single dead shard", lost, n)
	}
	snap := coord.MetricsSnapshot()
	if snap.PointErrors != 0 {
		t.Errorf("PointErrors = %d, want 0", snap.PointErrors)
	}
	if snap.Failovers == 0 {
		t.Error("no failovers recorded though a ring member is dead")
	}
}

// TestCoordinatorStreamedSweep: the coordinator speaks the same NDJSON
// lane as a single worker — serveclient.SweepStream cannot tell them
// apart — and counts the streamed lines.
func TestCoordinatorStreamedSweep(t *testing.T) {
	coord, url, _, _ := testCluster(t, 2, nil)
	c, err := serveclient.New(serveclient.Config{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var req serve.SweepRequest
	if err := json.Unmarshal([]byte(sweepBody(n)), &req); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	if err := c.SweepStream(context.Background(), req, func(line serve.SweepStreamLine) error {
		if line.Error != "" {
			t.Errorf("point %d failed: %s", line.Index, line.Error)
		}
		seen[line.Index] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("stream delivered %d distinct indices, want %d", len(seen), n)
	}
	if got := coord.MetricsSnapshot().StreamLines; got != n {
		t.Errorf("StreamLines = %d, want %d", got, n)
	}
}

// TestCoordinatorReusesShardConnections: a default coordinator keeps its
// shard connections alive across sweeps, so a shard accepts no more
// connections than the dispatches it can see at once (ShardConcurrency,
// default 8) instead of one per point.
func TestCoordinatorReusesShardConnections(t *testing.T) {
	shard := serve.New(serve.Config{})
	t.Cleanup(shard.Close)
	var accepted atomic.Int64
	ts := httptest.NewUnstartedServer(shard.Handler())
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			accepted.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	coord, err := New(Config{Shards: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	for i := 0; i < 5; i++ {
		if status, body := postJSON(t, cts.URL+"/v1/sweep", sweepBody(64)); status != http.StatusOK {
			t.Fatalf("sweep %d: %d %s", i, status, body)
		}
	}
	if n := accepted.Load(); n > 8 {
		t.Errorf("shard accepted %d connections over 5 sweeps of 64 points, want <= 8", n)
	}
}

// TestCoordinatorPlacementCacheAffinity: the same request twice lands on
// the same shard, so the repeat is that shard's cache hit — no shard
// evaluates it twice, cluster-wide.
func TestCoordinatorPlacementCacheAffinity(t *testing.T) {
	_, url, shards, _ := testCluster(t, 3, nil)
	req := `{"Preset": "fb", "Network": "ResNet-18"}`
	for i := 0; i < 2; i++ {
		if status, body := postJSON(t, url+"/v1/evaluate", req); status != http.StatusOK {
			t.Fatalf("evaluate %d: %d %s", i, status, body)
		}
	}
	var evals, hits int64
	for _, s := range shards {
		snap := s.MetricsSnapshot()
		evals += snap.Evaluations
		hits += snap.Cache.Hits
	}
	if evals != 1 || hits != 1 {
		t.Errorf("cluster evaluated %d / hit %d, want 1 / 1 (placement unstable?)", evals, hits)
	}
}

// TestCoordinatorEdgeValidation: malformed and over-limit requests are
// rejected at the coordinator with the worker tier's statuses and
// structured payload, before any shard round trip.
func TestCoordinatorEdgeValidation(t *testing.T) {
	_, url, shards, _ := testCluster(t, 2, func(cfg *Config) {
		cfg.Limits = serve.SpecLimits{MaxLayers: 1}
	})
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad preset", `{"Preset": "no-such"}`, http.StatusBadRequest},
		{"unknown field", `{"Bogus": 1}`, http.StatusBadRequest},
		{"over-limit spec", `{"Preset": "fb", "NetworkSpec": {"Name": "big", "Layers": [
			{"Kind": "fc", "Name": "f", "In": 8, "Out": 8, "Tokens": 1, "Repeat": 2}]}}`,
			http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		status, body := postJSON(t, url+"/v1/evaluate", tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d\n%s", tc.name, status, tc.status, body)
			continue
		}
		var er serve.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Status != tc.status {
			t.Errorf("%s: not a structured error payload: %s", tc.name, body)
		}
	}
	if status, body := postJSON(t, url+"/v1/sweep", `{"Points": []}`); status != http.StatusBadRequest {
		t.Errorf("empty sweep: %d %s", status, body)
	}
	for i, s := range shards {
		if reqs := s.MetricsSnapshot().Endpoints["/v1/evaluate"]; reqs.Requests != 0 {
			t.Errorf("shard %d saw %d requests — edge validation leaked", i, reqs.Requests)
		}
	}
}

// TestCoordinatorObservability: healthz answers, and both metrics views
// expose the routing counters.
func TestCoordinatorObservability(t *testing.T) {
	_, url, _, _ := testCluster(t, 2, nil)
	if status, body := postJSON(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "ResNet-18"}`); status != 200 {
		t.Fatalf("evaluate: %d %s", status, body)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hr.Status != "ok" || hr.Shards != 2 {
		t.Errorf("healthz: %+v", hr)
	}
	resp, err = http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"refocus_cluster_routed_total", "refocus_cluster_points_total", "refocus_cluster_in_flight"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus view missing %s", want)
		}
	}
}

// TestTrailingDataRejectedOnBothTiers: the worker and the coordinator in
// front of it mount one HTTP front, so they keep one contract: a valid
// JSON object followed by trailing data is a 400 on every POST endpoint,
// an empty sweep is a 400, a body over the tier's cap is a 413, and every
// response, errors included, carries an X-Request-ID.
func TestTrailingDataRejectedOnBothTiers(t *testing.T) {
	_, coordURL, _, shards := testCluster(t, 1, nil)
	type exchange struct {
		name, path, body string
		status           int
	}
	var cases []exchange
	for _, path := range []string{"/v1/evaluate", "/v1/robustness", "/v1/optimize"} {
		cases = append(cases, exchange{"trailing data", path, `{"Preset": "fb", "Network": "ResNet-18"} trailing-garbage`, http.StatusBadRequest})
	}
	cases = append(cases,
		exchange{"trailing data", "/v1/sweep", `{"Points": [{"Preset": "fb", "Network": "ResNet-18"}]} trailing-garbage`, http.StatusBadRequest},
		exchange{"empty sweep", "/v1/sweep", `{"Points": []}`, http.StatusBadRequest})
	tiers := []struct {
		name, url string
		limit     int // the tier's default body cap
	}{
		{"worker", shards[0].URL, 1 << 20},
		{"coordinator", coordURL, 8 << 20},
	}
	for _, tier := range tiers {
		oversized := `{"Preset": "fb", "Network": "` + strings.Repeat("x", tier.limit) + `"}`
		for _, tc := range append(cases, exchange{"body over the cap", "/v1/evaluate", oversized, http.StatusRequestEntityTooLarge}) {
			resp, err := http.Post(tier.url+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("%s %s, %s: answered %d, want %d: %s", tier.name, tc.path, tc.name, resp.StatusCode, tc.status, body)
			}
			if resp.Header.Get("X-Request-ID") == "" {
				t.Errorf("%s %s, %s: response carries no X-Request-ID", tier.name, tc.path, tc.name)
			}
		}
	}
}
