package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// goldenRequest is one entry of testdata/responses/requests.json: a
// request to a fresh worker and the status of its recorded response,
// whose bytes are testdata/responses/<Name>.json. The fixtures were
// recorded while responses still went through encoding/json's indent
// pass; internal/cluster replays the evaluate and sweep entries through
// a coordinator against the same files.
type goldenRequest struct {
	Name, Method, Path string
	Status             int
	Body               json.RawMessage
}

// goldenRequests reads the request table.
func goldenRequests(t *testing.T) []goldenRequest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "responses", "requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []goldenRequest
	if err := json.Unmarshal(data, &reqs); err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestResponseGoldens: a fresh worker answers every recorded request with
// the recorded status and the recorded bytes: evaluate by registry name,
// for "all", for an inline spec, with a fault set and for a bad design
// point; a buffered sweep with a failing point; /v1/networks and
// /v1/presets.
func TestResponseGoldens(t *testing.T) {
	for _, g := range goldenRequests(t) {
		t.Run(g.Name, func(t *testing.T) {
			_, url := testServer(t, Config{})
			req, err := http.NewRequest(g.Method, url+g.Path, bytes.NewReader(g.Body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got bytes.Buffer
			if _, err := got.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != g.Status {
				t.Errorf("status %d, want %d", resp.StatusCode, g.Status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "responses", g.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("response differs from the recorded fixture:\n got %s\nwant %s", got.Bytes(), want)
			}
		})
	}
}
