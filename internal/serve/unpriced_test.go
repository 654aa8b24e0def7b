package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unpricedRequests are design points that pass the config schema but that
// the model cannot price: an N_RFCU past the buffer plan's N_F (which
// panicked inside arch.Evaluate), and a delay line or reuse count so long
// that the laser power overflows (which evaluated to +Inf and answered a
// 200 with an empty body, from the cache on a repeat).
var unpricedRequests = []struct{ name, body, want string }{
	{"NRFCU", `{"Preset":"fb","Overrides":{"NRFCU":1000000000},"Network":"AlexNet"}`, "N_RFCU=1000000000"},
	{"M", `{"Preset":"fb","Overrides":{"M":1000000000},"Network":"AlexNet"}`, "Energy is +Inf"},
	{"Reuses", `{"Preset":"fb","Overrides":{"Reuses":1000000000},"Network":"AlexNet"}`, "Energy is +Inf"},
}

// TestEvaluateUnpricedDesignPoints: each unpriced design point answers a
// 400 whose structured error names the cause, on a repeat too, and the
// worker caches and persists nothing.
func TestEvaluateUnpricedDesignPoints(t *testing.T) {
	for _, tc := range unpricedRequests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewDiskStore(dir, 16)
			if err != nil {
				t.Fatal(err)
			}
			s, url := testServer(t, Config{Store: store})
			for attempt := 0; attempt < 2; attempt++ {
				status, body := post(t, url+"/v1/evaluate", tc.body)
				var er ErrorResponse
				if err := json.Unmarshal(body, &er); err != nil {
					t.Fatalf("attempt %d: status %d, body %q is not a structured error", attempt, status, body)
				}
				if status != http.StatusBadRequest || er.Status != status || !strings.Contains(er.Error, tc.want) {
					t.Fatalf("attempt %d: %d %+v, want 400 naming %q", attempt, status, er, tc.want)
				}
			}
			snap := s.MetricsSnapshot()
			if snap.Cache.Hits != 0 || snap.Cache.Entries != 0 {
				t.Errorf("cache %+v, want no entries and no hits", snap.Cache)
			}
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				t.Errorf("persisted %s", filepath.Join(dir, f.Name()))
			}
		})
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses is a 500
// carrying the structured error, with nothing of the value written.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]float64{"Energy": math.Inf(1)})
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("body %q is not a structured error: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || er.Status != rec.Code ||
		!strings.HasPrefix(er.Error, "serve: encoding response: json: unsupported value: +Inf") {
		t.Errorf("%d %+v", rec.Code, er)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}
