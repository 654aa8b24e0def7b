package job

import (
	"encoding/json"
	"net/http"
)

// NDJSONContentType is the newline-delimited JSON media type job
// streams are served with (the serving tier's streaming convention,
// repeated here because the serving tier imports this package).
const NDJSONContentType = "application/x-ndjson"

// finalLine is a stream's last line. Its fields are the leading and
// trailing fields of every kind's stream line, so it decodes as one.
type finalLine[St any] struct {
	// Type is "done" or "failed".
	Type string
	// Completed counts finished cells (resumed included) out of Total.
	Completed int
	Total     int
	// Status is the job's terminal status.
	Status *St
}

// Stream writes a job's progress to w as NDJSON: every line the job
// publishes (a lagging reader skips some rather than stalling the job),
// then a final line carrying the terminal status. onLine, if non-nil,
// is called after each line (stream metrics). It blocks until the job
// finishes or the client disconnects.
func Stream[S Spec[S], R Record, F, St any](w http.ResponseWriter, r *http.Request, j *Job[S, R, F, St], onLine func()) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	line := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		rc.Flush() //nolint:errcheck // an unflushable writer just buffers
		if onLine != nil {
			onLine()
		}
		return true
	}

	lines, cancel := j.Subscribe()
	defer cancel()
	for {
		select {
		case v, ok := <-lines:
			if !ok {
				st := j.Status()
				j.mu.Lock()
				final := finalLine[St]{Type: string(Done), Completed: len(j.records), Total: j.spec.Budget(), Status: &st}
				if j.err != nil {
					final.Type = string(Failed)
				}
				j.mu.Unlock()
				line(final)
				return
			}
			if !line(v) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
