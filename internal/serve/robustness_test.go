package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"refocus/internal/robust"
)

// campaignBody is a tiny but real campaign: 2 severities × 2 trials on
// the fb preset with a minimal reference task, fast enough for handler
// tests while exercising the full fault-sampling and accuracy path.
const campaignBody = `{
	"Preset": "fb", "Network": "ResNet-18",
	"Severities": [0, 1.5], "Trials": 2, "Seed": 5,
	"Model": {"RFCUFailProb": 0.15, "WavelengthFailProb": 0.05, "BufferLossSigmaDB": 0.4},
	"Task": {"Classes": 2, "Size": 4, "TrainSamples": 6, "TestSamples": 4, "Epochs": 1, "LearningRate": 0.05}
}`

// pollCampaign polls GET /v1/robustness/{id} until the campaign leaves
// "running" or the deadline passes.
func pollCampaign(t *testing.T, url, id string) robust.StatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := get(t, url+"/v1/robustness/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll answered %d: %s", code, body)
		}
		var st robust.StatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("unparseable status %s: %v", body, err)
		}
		if st.Status != robust.StatusRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still running at deadline: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRobustnessLifecycle: submit a campaign, poll it to completion,
// check the frontier and the metrics counters, and confirm unknown IDs
// answer 404.
func TestRobustnessLifecycle(t *testing.T) {
	s, url := testServer(t, Config{})
	code, body := post(t, url+"/v1/robustness", campaignBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit answered %d: %s", code, body)
	}
	var st robust.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.TotalTrials != 4 {
		t.Fatalf("submit response missing identity or budget: %+v", st)
	}

	final := pollCampaign(t, url, st.ID)
	if final.Status != robust.StatusDone {
		t.Fatalf("campaign ended %q: %s", final.Status, final.Error)
	}
	if final.CompletedTrials != 4 || final.ExecutedTrials != 4 {
		t.Errorf("completed=%d executed=%d, want 4/4", final.CompletedTrials, final.ExecutedTrials)
	}
	if len(final.Frontier) != 2 {
		t.Fatalf("want 2 frontier points, got %d", len(final.Frontier))
	}
	if p := final.Frontier[0]; p.Severity != 0 || p.Yield != 1 || p.FPS.Mean <= 0 {
		t.Errorf("severity-0 point should be a perfect fab with positive FPS: %+v", p)
	}
	if final.NominalFPS <= 0 || final.CleanAccuracy <= 0 {
		t.Errorf("campaign baselines missing: %+v", final)
	}

	snap := s.MetricsSnapshot()
	if snap.Robustness.Campaigns != 1 || snap.Robustness.Trials != 4 {
		t.Errorf("metrics: %+v, want 1 campaign and 4 trials", snap.Robustness)
	}

	if code, _ := get(t, url+"/v1/robustness/nope"); code != http.StatusNotFound {
		t.Errorf("unknown campaign answered %d, want 404", code)
	}
}

// TestRobustnessResubmitAttaches: posting the same spec again answers
// 200 (attached) instead of 202 (created), and after completion a new
// submit resumes from the checkpoint with zero recomputed trials.
func TestRobustnessResubmitAttaches(t *testing.T) {
	dir := t.TempDir()
	s, url := testServer(t, Config{CampaignDir: dir})
	code, body := post(t, url+"/v1/robustness", campaignBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit answered %d: %s", code, body)
	}
	var st robust.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final := pollCampaign(t, url, st.ID)
	if final.Status != robust.StatusDone {
		t.Fatalf("campaign ended %q: %s", final.Status, final.Error)
	}

	// The campaign is finished: a resubmission starts a fresh job that
	// resumes every trial from the checkpoint.
	code, body = post(t, url+"/v1/robustness", campaignBody)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit answered %d: %s", code, body)
	}
	resumed := pollCampaign(t, url, st.ID)
	if resumed.ExecutedTrials != 0 || resumed.ResumedTrials != 4 {
		t.Errorf("resumed campaign executed=%d resumed=%d, want 0/4", resumed.ExecutedTrials, resumed.ResumedTrials)
	}
	if s.MetricsSnapshot().Robustness.TrialsResumed != 4 {
		t.Errorf("TrialsResumed = %d, want 4", s.MetricsSnapshot().Robustness.TrialsResumed)
	}
}

// TestRobustnessServerRestartResume: a second server process over the
// same campaign directory picks up the finished checkpoint — status by
// ID without resubmitting, and a resubmit that recomputes nothing.
func TestRobustnessServerRestartResume(t *testing.T) {
	dir := t.TempDir()
	_, url := testServer(t, Config{CampaignDir: dir})
	_, body := post(t, url+"/v1/robustness", campaignBody)
	var st robust.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if final := pollCampaign(t, url, st.ID); final.Status != robust.StatusDone {
		t.Fatalf("campaign ended %q: %s", final.Status, final.Error)
	}

	// "Restart": a fresh server over the same directory.
	s2, url2 := testServer(t, Config{CampaignDir: dir})
	code, body := get(t, url2+"/v1/robustness/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("disk status answered %d: %s", code, body)
	}
	var disk robust.StatusResponse
	if err := json.Unmarshal(body, &disk); err != nil {
		t.Fatal(err)
	}
	if disk.Status != robust.StatusDone || len(disk.Frontier) != 2 {
		t.Fatalf("disk status %q with %d frontier points", disk.Status, len(disk.Frontier))
	}

	code, _ = post(t, url2+"/v1/robustness", campaignBody)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after restart answered %d", code)
	}
	resumed := pollCampaign(t, url2, st.ID)
	if resumed.ExecutedTrials != 0 || resumed.ResumedTrials != 4 {
		t.Errorf("post-restart campaign executed=%d resumed=%d, want 0/4", resumed.ExecutedTrials, resumed.ResumedTrials)
	}
	if s2.MetricsSnapshot().Robustness.TrialsResumed != 4 {
		t.Errorf("restart server TrialsResumed = %d, want 4", s2.MetricsSnapshot().Robustness.TrialsResumed)
	}
}

// TestRobustnessStream: the NDJSON lane delivers trial updates and a
// final line carrying the terminal status.
func TestRobustnessStream(t *testing.T) {
	_, url := testServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/robustness", strings.NewReader(campaignBody))
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
	var last robust.Update
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
	if last.Type != "done" || last.Status == nil || last.Status.Status != robust.StatusDone {
		t.Fatalf("final stream line is not a done status: %+v", last)
	}
	if last.Completed != last.Total || last.Total != 4 {
		t.Errorf("final line reports %d/%d trials", last.Completed, last.Total)
	}
}

// TestRobustnessBadSpecs: malformed or invalid specs answer 400 without
// starting work.
func TestRobustnessBadSpecs(t *testing.T) {
	_, url := testServer(t, Config{})
	for name, body := range map[string]string{
		"garbage":       `{"nope": true}`,
		"no design":     `{"Trials": 2}`,
		"both points":   `{"Preset": "fb", "Config": {"Base": "fb"}}`,
		"bad severity":  `{"Preset": "fb", "Severities": [-1]}`,
		"trial budget":  `{"Preset": "fb", "Trials": 99999}`,
		"unknown net":   `{"Preset": "fb", "Network": "nope"}`,
		"trailing data": `{"Preset": "fb"} extra`,
	} {
		if code, resp := post(t, url+"/v1/robustness", body); code != http.StatusBadRequest {
			t.Errorf("%s: answered %d (%s), want 400", name, code, resp)
		}
	}
}
