package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"refocus/internal/opt"
)

// searchBody is a tiny but real search: 2 generations x 2 candidates of
// random sampling on the fb preset space, fast enough for handler tests
// while exercising the full propose/evaluate/front path.
const searchBody = `{
	"Preset": "fb", "Network": "ResNet-18",
	"Strategy": "random", "Generations": 2, "Population": 2, "Seed": 9
}`

// pollSearch polls GET /v1/optimize/{id} until the search leaves
// "running" or the deadline passes.
func pollSearch(t *testing.T, url, id string) opt.StatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := get(t, url+"/v1/optimize/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll answered %d: %s", code, body)
		}
		var st opt.StatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("unparseable status %s: %v", body, err)
		}
		if st.Status != opt.StatusRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("search still running at deadline: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestOptimizeLifecycle: submit a search, poll it to completion, check
// the front and the metrics counters, and confirm unknown IDs answer
// 404.
func TestOptimizeLifecycle(t *testing.T) {
	s, url := testServer(t, Config{})
	code, body := post(t, url+"/v1/optimize", searchBody)
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

	final := pollSearch(t, url, st.ID)
	if final.Status != opt.StatusDone {
		t.Fatalf("search ended %q: %s", final.Status, final.Error)
	}
	if final.CompletedPoints != 4 || final.ExecutedPoints != 4 {
		t.Errorf("completed=%d executed=%d, want 4/4", final.CompletedPoints, final.ExecutedPoints)
	}
	if len(final.Front) == 0 {
		t.Fatal("finished search has no front")
	}
	for _, p := range final.Front {
		if p.Metrics.FPS <= 0 || p.Metrics.AreaMM2 <= 0 || p.ConfigHash == "" {
			t.Errorf("front point missing metrics or identity: %+v", p)
		}
	}

	snap := s.MetricsSnapshot()
	if snap.Optimize.Searches != 1 || snap.Optimize.Points != 4 {
		t.Errorf("metrics: %+v, want 1 search and 4 points", snap.Optimize)
	}

	if code, _ := get(t, url+"/v1/optimize/nope"); code != http.StatusNotFound {
		t.Errorf("unknown search answered %d, want 404", code)
	}
}

// TestOptimizeResubmitResumes: after completion a new submit over a
// durable optimize directory resumes from the checkpoint with zero
// recomputed candidates, and a fresh server over the same directory
// serves the finished status by ID.
func TestOptimizeResubmitResumes(t *testing.T) {
	dir := t.TempDir()
	s, url := testServer(t, Config{OptimizeDir: dir})
	code, body := post(t, url+"/v1/optimize", searchBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit answered %d: %s", code, body)
	}
	var st opt.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final := pollSearch(t, url, st.ID)
	if final.Status != opt.StatusDone {
		t.Fatalf("search ended %q: %s", final.Status, final.Error)
	}

	code, body = post(t, url+"/v1/optimize", searchBody)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit answered %d: %s", code, body)
	}
	resumed := pollSearch(t, url, st.ID)
	if resumed.ExecutedPoints != 0 || resumed.ResumedPoints != 4 {
		t.Errorf("resumed search executed=%d resumed=%d, want 0/4", resumed.ExecutedPoints, resumed.ResumedPoints)
	}
	if got, want := frontBytes(t, resumed.Front), frontBytes(t, final.Front); got != want {
		t.Errorf("resumed front differs:\n first %s\n resumed %s", want, got)
	}
	if s.MetricsSnapshot().Optimize.PointsResumed != 4 {
		t.Errorf("PointsResumed = %d, want 4", s.MetricsSnapshot().Optimize.PointsResumed)
	}

	// "Restart": a fresh server over the same directory serves the
	// checkpoint's view without a resubmit.
	_, url2 := testServer(t, Config{OptimizeDir: dir})
	code, body = get(t, url2+"/v1/optimize/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("disk status answered %d: %s", code, body)
	}
	var disk opt.StatusResponse
	if err := json.Unmarshal(body, &disk); err != nil {
		t.Fatal(err)
	}
	if disk.Status != opt.StatusDone || len(disk.Front) != len(final.Front) {
		t.Fatalf("disk status %q with %d front points, want done with %d", disk.Status, len(disk.Front), len(final.Front))
	}
}

// frontBytes canonicalizes a front for byte comparison.
func frontBytes(t *testing.T, front []opt.FrontPoint) string {
	t.Helper()
	data, err := json.Marshal(front)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestOptimizeStream: the NDJSON lane delivers candidate updates and a
// final line carrying the terminal status.
func TestOptimizeStream(t *testing.T) {
	_, url := testServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/optimize", strings.NewReader(searchBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Fatalf("stream content type %q", ct)
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
	if last.Completed != last.Total || last.Total != 4 {
		t.Errorf("final line reports %d/%d points", last.Completed, last.Total)
	}
}

// TestOptimizeBadSpecs: malformed or invalid specs answer 400 without
// starting work.
func TestOptimizeBadSpecs(t *testing.T) {
	_, url := testServer(t, Config{})
	for name, body := range map[string]string{
		"garbage":       `{"nope": true}`,
		"no design":     `{"Strategy": "random"}`,
		"both points":   `{"Preset": "fb", "Config": {"Base": "fb"}}`,
		"bad strategy":  `{"Preset": "fb", "Strategy": "magic"}`,
		"anneal":        `{"Preset": "fb", "Strategy": "anneal"}`,
		"bad objective": `{"Preset": "fb", "Objectives": ["speed"]}`,
		"budget":        `{"Preset": "fb", "Generations": 64, "Population": 256}`,
		"unknown net":   `{"Preset": "fb", "Network": "nope"}`,
		"trailing data": `{"Preset": "fb"} extra`,
	} {
		if code, resp := post(t, url+"/v1/optimize", body); code != http.StatusBadRequest {
			t.Errorf("%s: answered %d (%s), want 400", name, code, resp)
		}
	}
}
