package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResponseGoldensThroughCoordinator replays the worker's recorded
// evaluate and sweep requests (internal/serve/testdata/responses)
// through a coordinator over fresh shards: every answer carries the
// status and the bytes a worker answers with directly.
func TestResponseGoldensThroughCoordinator(t *testing.T) {
	dir := filepath.Join("..", "serve", "testdata", "responses")
	data, err := os.ReadFile(filepath.Join(dir, "requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []struct {
		Name, Method, Path string
		Status             int
		Body               json.RawMessage
	}
	if err := json.Unmarshal(data, &reqs); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, g := range reqs {
		if !strings.HasPrefix(g.Path, "/v1/evaluate") && !strings.HasPrefix(g.Path, "/v1/sweep") {
			continue
		}
		replayed++
		t.Run(g.Name, func(t *testing.T) {
			_, url, _, _ := testCluster(t, 3, nil)
			status, got := postJSON(t, url+g.Path, string(g.Body))
			if status != g.Status {
				t.Errorf("status %d, want %d", status, g.Status)
			}
			want, err := os.ReadFile(filepath.Join(dir, g.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response differs from the worker's recorded fixture:\n got %s\nwant %s", got, want)
			}
		})
	}
	if replayed == 0 {
		t.Fatal("no evaluate or sweep request in the table")
	}
}
