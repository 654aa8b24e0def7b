package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postNDJSON posts body asking for the streaming lane and returns the
// response plus its decoded lines.
func postNDJSON(t *testing.T, url, body string) (*http.Response, []SweepStreamLine) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []SweepStreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var line SweepStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d is not a JSON object: %v\n%s", len(lines), err, sc.Text())
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// TestSweepStreamMatchesBuffered is the golden test of the two sweep
// encodings: the same batch, fetched buffered and streamed, must carry
// identical information — the NDJSON lines reassembled by Index are
// exactly the buffered Points array, including inline per-point errors.
func TestSweepStreamMatchesBuffered(t *testing.T) {
	// Two fresh servers, so both encodings see identical (cold) cache
	// state — otherwise the second request's CacheHits counters differ.
	_, urlBuf := testServer(t, Config{})
	_, urlStream := testServer(t, Config{})
	body := `{"Points": [
		{"Preset": "fb", "Network": "ResNet-18"},
		{"Preset": "no-such-preset"},
		{"Preset": "ff", "Network": "FNet-base"}
	]}`

	status, buf := post(t, urlBuf+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("buffered sweep: %d %s", status, buf)
	}
	var buffered SweepResponse
	if err := json.Unmarshal(buf, &buffered); err != nil {
		t.Fatal(err)
	}

	resp, lines := postNDJSON(t, urlStream+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed sweep: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Errorf("Content-Type = %q, want %q", ct, NDJSONContentType)
	}
	if len(lines) != len(buffered.Points) {
		t.Fatalf("stream carried %d lines, buffered %d points", len(lines), len(buffered.Points))
	}
	reassembled := make([]SweepPointResult, len(lines))
	seen := make(map[int]bool)
	for _, line := range lines {
		if line.Index < 0 || line.Index >= len(reassembled) {
			t.Fatalf("line Index %d out of range", line.Index)
		}
		if seen[line.Index] {
			t.Fatalf("duplicate line for Index %d", line.Index)
		}
		seen[line.Index] = true
		reassembled[line.Index] = line.SweepPointResult
	}
	a, _ := json.Marshal(buffered.Points)
	b, _ := json.Marshal(reassembled)
	if string(a) != string(b) {
		t.Errorf("stream and buffered encodings disagree:\nbuffered:  %.400s\nstreamed:  %.400s", a, b)
	}
	if reassembled[1].Error == "" {
		t.Error("bad point carried no inline Error")
	}
	if reassembled[0].Error != "" || len(reassembled[0].Reports) == 0 {
		t.Error("good point missing its report")
	}
}

// TestSweepStreamQueryParam: ?stream=1 selects the lane for clients that
// cannot set an Accept header.
func TestSweepStreamQueryParam(t *testing.T) {
	s, url := testServer(t, Config{})
	resp, err := http.Post(url+"/v1/sweep?stream=1", "application/json",
		strings.NewReader(`{"Points": [{"Preset": "fb", "Network": "ResNet-18"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Errorf("Content-Type = %q, want %q", ct, NDJSONContentType)
	}
	var line SweepStreamLine
	if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Error != "" || line.Index != 0 {
		t.Errorf("unexpected line: %+v", line)
	}
	if got := s.MetricsSnapshot(); got.Endpoints["/v1/sweep"].Requests != 1 {
		t.Errorf("sweep endpoint not instrumented: %+v", got.Endpoints)
	}
}

// TestSweepBufferedDefaultUnchanged: without the Accept header the legacy
// buffered body is served with the JSON content type — old clients see no
// change.
func TestSweepBufferedDefaultUnchanged(t *testing.T) {
	_, url := testServer(t, Config{})
	resp, err := http.Post(url+"/v1/sweep", "application/json",
		strings.NewReader(`{"Points": [{"Preset": "fb", "Network": "ResNet-18"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 || sr.Points[0].Error != "" {
		t.Errorf("unexpected buffered response: %+v", sr)
	}
}

// TestInstrumentedStreamsFlush: the metrics middleware passes flushes
// through, so an NDJSON line leaves the server as soon as it is written
// instead of waiting in the response buffer.
func TestInstrumentedStreamsFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	if err := http.NewResponseController(sw).Flush(); err != nil || !rec.Flushed {
		t.Errorf("flush through the middleware: err=%v flushed=%v", err, rec.Flushed)
	}
}
