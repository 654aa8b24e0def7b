package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"refocus/internal/opt"
	"refocus/internal/robust"
)

// The fixtures under testdata/jobs pin the job wire and disk formats.
// They were recorded from the lifecycle code as it stood before the two
// job kinds moved onto internal/job, with GOMAXPROCS=1 so the noisy
// device path ran serially. Each kind has one small job — a retraining
// campaign, a search with a yield axis — and five files: the final
// NDJSON stream line, the done status, the finished checkpoint, and an
// interrupted checkpoint (the job's server closed mid-run) with the
// status a restarted server reports for it.
var goldenJobs = []struct {
	name, path, spec string
	// checkpoint names the kind's checkpoint file for an ID in dir.
	checkpoint func(dir, id string) string
}{
	{"campaign", "/v1/robustness", `{"Name": "golden-campaign", "Preset": "fb", "Network": "ResNet-18",
		"Severities": [0, 1.5], "Trials": 3, "Seed": 5, "Retrain": true,
		"Model": {"RFCUFailProb": 0.15, "WavelengthFailProb": 0.05, "BufferLossSigmaDB": 0.4},
		"Task": {"Classes": 2, "Size": 4, "TrainSamples": 6, "TestSamples": 4, "Epochs": 1, "LearningRate": 0.05}}`,
		robust.CheckpointPath},
	{"search", "/v1/optimize", `{"Name": "golden-search", "Preset": "fb", "Network": "ResNet-18",
		"Strategy": "evolve", "Generations": 2, "Population": 3, "Seed": 9, "YieldTrials": 4}`,
		opt.CheckpointPath},
}

// golden reads one fixture.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "jobs", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenServer boots a worker checkpointing into dir.
func goldenServer(t *testing.T, dir string) string {
	t.Helper()
	_, url := testServer(t, Config{CampaignDir: filepath.Join(dir, "robustness"), OptimizeDir: filepath.Join(dir, "optimize")})
	return url
}

// kindDir is the checkpoint directory of a kind under dir.
func kindDir(dir, path string) string {
	return filepath.Join(dir, strings.TrimPrefix(path, "/v1/"))
}

// sameBytes fails unless got equals the fixture byte for byte.
func sameBytes(t *testing.T, fixture string, got []byte) {
	t.Helper()
	if want := golden(t, fixture); !bytes.Equal(got, want) {
		t.Errorf("%s differs from the recorded fixture:\n got %s\nwant %s", fixture, got, want)
	}
}

// TestJobGoldens runs each golden job to completion and compares its
// final stream line, done status and finished checkpoint with the
// fixtures.
func TestJobGoldens(t *testing.T) {
	for _, k := range goldenJobs {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			url := goldenServer(t, dir)
			req, err := http.NewRequest(http.MethodPost, url+k.path, strings.NewReader(k.spec))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", NDJSONContentType)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var last []byte
			rd := bufio.NewReader(resp.Body)
			for {
				line, err := rd.ReadBytes('\n')
				if len(line) > 0 {
					last = line
				}
				if err != nil {
					break
				}
			}
			sameBytes(t, k.name+"-final-line.ndjson", last)

			var final struct{ Status struct{ ID string } }
			if err := json.Unmarshal(last, &final); err != nil {
				t.Fatal(err)
			}
			id := final.Status.ID
			code, body := get(t, url+k.path+"/"+id)
			if code != http.StatusOK {
				t.Fatalf("status answered %d: %s", code, body)
			}
			sameBytes(t, k.name+"-done-status.json", body)
			cp, err := os.ReadFile(k.checkpoint(kindDir(dir, k.path), id))
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, k.name+"-done-checkpoint.json", cp)
		})
	}
}

// TestJobGoldensResumeInterrupted hands each recorded interrupted
// checkpoint to a fresh server: the status it reports matches the
// recorded one, and resubmitting the spec finishes the job without
// re-running a checkpointed cell (executed + resumed == total) into the
// recorded finished checkpoint.
func TestJobGoldensResumeInterrupted(t *testing.T) {
	for _, k := range goldenJobs {
		t.Run(k.name, func(t *testing.T) {
			interrupted := golden(t, k.name+"-interrupted-checkpoint.json")
			var cp struct {
				ID   string
				Done []json.RawMessage
			}
			if err := json.Unmarshal(interrupted, &cp); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := k.checkpoint(kindDir(dir, k.path), cp.ID)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, interrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			url := goldenServer(t, dir)
			code, body := get(t, url+k.path+"/"+cp.ID)
			if code != http.StatusOK {
				t.Fatalf("interrupted status answered %d: %s", code, body)
			}
			sameBytes(t, k.name+"-interrupted-status.json", body)

			if code, body := post(t, url+k.path, k.spec); code != http.StatusAccepted {
				t.Fatalf("resubmit answered %d: %s", code, body)
			}
			var total, executed, resumed int
			if k.name == "campaign" {
				st := pollCampaign(t, url, cp.ID)
				total, executed, resumed = st.TotalTrials, st.ExecutedTrials, st.ResumedTrials
			} else {
				st := pollSearch(t, url, cp.ID)
				total, executed, resumed = st.TotalPoints, st.ExecutedPoints, st.ResumedPoints
			}
			if resumed != len(cp.Done) || executed+resumed != total {
				t.Errorf("resume executed %d + resumed %d of %d, want %d resumed and none re-run",
					executed, resumed, total, len(cp.Done))
			}
			finished, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, k.name+"-done-checkpoint.json", finished)
		})
	}
}
