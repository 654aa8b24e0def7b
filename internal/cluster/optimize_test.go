package cluster

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refocus/internal/opt"
	"refocus/internal/serve"
)

// searchBody is the tiny real search of the serve handler tests: 2
// generations x 2 random candidates on the fb preset space.
const searchBody = `{
	"Preset": "fb", "Network": "ResNet-18",
	"Strategy": "random", "Generations": 2, "Population": 2, "Seed": 9
}`

// TestCoordinatorOptimizeSearch: a search submitted to the coordinator
// runs its candidate evaluations through ring dispatch across real
// worker shards and completes with the same front contract as a
// worker-local search.
func TestCoordinatorOptimizeSearch(t *testing.T) {
	coord, url, shards, _ := testCluster(t, 2, nil)
	t.Cleanup(coord.Close)

	code, body := postJSON(t, url+"/v1/optimize", searchBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit answered %d: %s", code, body)
	}
	var st opt.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.TotalPoints != 4 {
		t.Fatalf("submit response missing identity or budget: %+v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.Status == opt.StatusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("search still running at deadline: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err := http.Get(url + "/v1/optimize/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll answered %d (%v): %s", resp.StatusCode, err, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.Status != opt.StatusDone {
		t.Fatalf("search ended %q: %s", st.Status, st.Error)
	}
	if st.CompletedPoints != 4 || len(st.Front) == 0 {
		t.Fatalf("completed=%d front=%d, want 4 points and a non-empty front", st.CompletedPoints, len(st.Front))
	}
	if st.Front[0].Metrics.FPS <= 0 || st.Front[0].ConfigHash == "" {
		t.Errorf("front point missing metrics or identity: %+v", st.Front[0])
	}

	// Every candidate was dispatched to a shard; repeated candidates may
	// be deduplicated by the shard caches, so only the dispatch count is
	// exact.
	m := coord.MetricsSnapshot()
	if m.Points < 4 {
		t.Errorf("coordinator dispatched %d points, want >= 4 candidates", m.Points)
	}
	if m.Optimize.Searches != 1 || m.Optimize.Points != 4 {
		t.Errorf("coordinator optimize metrics: %+v", m.Optimize)
	}
	var evals int64
	for _, s := range shards {
		evals += s.MetricsSnapshot().Evaluations
	}
	if evals < 1 {
		t.Error("no evaluation executed on any shard")
	}

	// Unknown search IDs answer 404 at the coordinator tier too.
	resp, err := http.Get(url + "/v1/optimize/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown search answered %d, want 404", resp.StatusCode)
	}
}

// TestCoordinatorOptimizeStreamAndBadSpec: the coordinator's NDJSON lane
// delivers per-candidate updates ending in a terminal status line, and a
// malformed spec answers 400 without starting work.
func TestCoordinatorOptimizeStreamAndBadSpec(t *testing.T) {
	coord, url, _, _ := testCluster(t, 2, nil)
	t.Cleanup(coord.Close)

	if code, body := postJSON(t, url+"/v1/optimize", `{"Preset": "fb", "Strategy": "magic"}`); code != http.StatusBadRequest {
		t.Fatalf("bad spec answered %d: %s", code, body)
	}

	req, err := http.NewRequest(http.MethodPost, url+"/v1/optimize", strings.NewReader(searchBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", serve.NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream answered %d", resp.StatusCode)
	}
	var last opt.Update
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("unparseable stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("stream delivered no lines")
	}
	if last.Type != "done" || last.Status == nil || last.Status.Status != opt.StatusDone {
		t.Fatalf("final stream line is not a done status: %+v", last)
	}
}

// TestCoordinatorSearchWaitsOutShed: a shard that sheds a search's first
// evaluations (429 with Retry-After) past the client's retries delays
// the coordinator-run search instead of failing it.
func TestCoordinatorSearchWaitsOutShed(t *testing.T) {
	shard := serve.New(serve.Config{})
	t.Cleanup(shard.Close)
	var evaluates atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/evaluate" && evaluates.Add(1) <= 4 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"Error": "serve: worker pool saturated and queue full; retry later", "Status": 429}`, http.StatusTooManyRequests)
			return
		}
		shard.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	coord, err := New(Config{Shards: []string{ts.URL}, HedgeDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	spec := `{"Preset": "fb", "Network": "ResNet-18", "Strategy": "random", "Generations": 1, "Population": 2, "Seed": 9}`
	code, body := postJSON(t, cts.URL+"/v1/optimize", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit answered %d: %s", code, body)
	}
	var st opt.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st.Status == opt.StatusRunning && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		resp, err := http.Get(cts.URL + "/v1/optimize/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		st = opt.StatusResponse{}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.Status != opt.StatusDone || st.CompletedPoints != 2 {
		t.Fatalf("search ended %q with %d/2 points: %s", st.Status, st.CompletedPoints, st.Error)
	}
	if n := evaluates.Load(); n <= 4 {
		t.Errorf("shard saw %d evaluate calls, want the 4 shed ones and more", n)
	}
}
