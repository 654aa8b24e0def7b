package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refocus/internal/arch"
	"refocus/internal/obs"
)

// TierConfig is what a serving tier — the worker Server or the cluster
// Coordinator — supplies to the HTTP front it mounts.
type TierConfig struct {
	// Point evaluates one design point: the worker's cache and pool, or
	// the coordinator's ring dispatch. routeKey places a job cell on a
	// cluster's ring; requests pass "" and are placed by RouteKey.
	Point func(ctx context.Context, req EvaluateRequest, routeKey string) (EvaluateResponse, error)
	// Shed marks, besides a 429 status, a Point error after which a job
	// cell waits a second and runs again (the coordinator passes
	// serveclient.ErrShed).
	Shed error
	// Timeout bounds one evaluate or sweep request; MaxBodyBytes caps a
	// request body (larger bodies get 413).
	Timeout      time.Duration
	MaxBodyBytes int64
	// Metrics is the tier's registry; InFlightGauge and StreamCounter
	// name the tier's in-flight gauge and NDJSON line counter on it.
	Metrics                      *obs.Registry
	InFlightGauge, StreamCounter string
	// Snapshot builds the JSON /metrics payload; Health is the /healthz
	// payload.
	Snapshot func() any
	Health   any
	// Guard wraps the evaluate and sweep handlers inside the middleware
	// (the worker's chaos injector); nil leaves them bare.
	Guard func(http.HandlerFunc) http.HandlerFunc
	// Logger (non-nil) receives one line per completed request.
	Logger *slog.Logger
}

// Tier is the HTTP front both serving tiers mount: the request
// middleware (request ID, in-flight count, per-endpoint counters and
// latency, request log), the timed JSON writer, the strict body decoder,
// the handlers of POST /v1/evaluate and /v1/sweep, GET /healthz and
// /metrics, the job-cell loop and the listen/drain loop. A tier adds its
// own routes with Handle.
type Tier struct {
	tc          TierConfig
	mux         *http.ServeMux
	inFlight    atomic.Int64
	streamLines *obs.Counter
	encode      *obs.Histogram
	// reqSeq numbers requests; joined with a per-process prefix it forms
	// the X-Request-ID every response carries and every span and log
	// line repeats.
	reqSeq    atomic.Int64
	reqPrefix string

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

// NewTier builds the front and mounts the shared routes.
func NewTier(tc TierConfig) *Tier {
	t := &Tier{
		tc:          tc,
		mux:         http.NewServeMux(),
		streamLines: tc.Metrics.Counter(tc.StreamCounter, "Sweep results delivered over the NDJSON streaming lane.", nil),
		encode:      tc.Metrics.Histogram("refocus_encode_seconds", "Time spent JSON-encoding responses.", nil, obs.FineBuckets),
		reqPrefix:   fmt.Sprintf("%x", time.Now().UnixNano()&0xffffff),
		endpoints:   make(map[string]*endpointMetrics),
	}
	tc.Metrics.Gauge(tc.InFlightGauge, "Requests currently inside a handler.", nil,
		func() float64 { return float64(t.inFlight.Load()) })
	guard := tc.Guard
	if guard == nil {
		guard = func(h http.HandlerFunc) http.HandlerFunc { return h }
	}
	t.Handle("POST /v1/evaluate", "/v1/evaluate", guard(t.handleEvaluate))
	t.Handle("POST /v1/sweep", "/v1/sweep", guard(t.handleSweep))
	t.Handle("GET /healthz", "/healthz", t.handleHealthz)
	t.Handle("GET /metrics", "/metrics", t.handleMetrics)
	return t
}

// Handler returns the tier's HTTP handler (all routes).
func (t *Tier) Handler() http.Handler { return t.mux }

// InFlight is the number of requests currently inside a handler.
func (t *Tier) InFlight() int64 { return t.inFlight.Load() }

// StreamLines counts the NDJSON lines the tier has written.
func (t *Tier) StreamLines() int64 { return t.streamLines.Value() }

// Handle registers h on pattern behind the middleware, counted under the
// metrics label (which must avoid braces: they collide with the
// Prometheus label syntax).
func (t *Tier) Handle(pattern, label string, h http.HandlerFunc) {
	t.mux.Handle(pattern, t.instrument(label, h))
}

// statusWriter records the status a handler wrote so the metrics
// middleware can classify the response.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// the NDJSON lanes can flush each line through the middleware.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// requestIDHeader carries the server-assigned request id on every
// response, so clients can quote it when reporting a failure and logs,
// spans and wire traffic all correlate on one token.
const requestIDHeader = "X-Request-ID"

// instrument wraps a handler with the observability middleware: a
// request id minted into the context (and response header), the
// in-flight gauge, request/error counters, the latency histogram, and
// one structured log line per completed request.
func (t *Tier) instrument(label string, h http.HandlerFunc) http.Handler {
	em := t.endpoint(label)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.inFlight.Add(1)
		defer t.inFlight.Add(-1)
		reqID := fmt.Sprintf("%s-%06d", t.reqPrefix, t.reqSeq.Add(1))
		r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
		w.Header().Set(requestIDHeader, reqID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		em.observe(elapsed, sw.status)
		t.tc.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", elapsed),
		)
	})
}

// writeJSON sends v with the given status, timing the encode into the
// refocus_encode_seconds stage histogram.
func (t *Tier) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	start := time.Now()
	enc.Encode(v) //nolint:errcheck // a failed write means the client is gone
	t.encode.Observe(time.Since(start).Seconds())
}

// decode strictly parses the request body into v, enforcing the body
// cap and rejecting unknown fields and trailing data.
func (t *Tier) decode(w http.ResponseWriter, r *http.Request, v any) error {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, t.tc.MaxBodyBytes))
	if err != nil {
		return fmt.Errorf("serve: reading body: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest(fmt.Errorf("serve: parsing request: %w", err))
	}
	if dec.More() {
		return badRequest(errors.New("serve: parsing request: trailing data after JSON object"))
	}
	return nil
}

// writeError sends the structured error payload for err with StatusOf's
// status, honoring any Retry-After hint the error carries.
func (t *Tier) writeError(w http.ResponseWriter, err error) {
	status := StatusOf(err)
	var ae *apiError
	if errors.As(err, &ae) && ae.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
	}
	t.writeJSON(w, status, ErrorResponse{Error: err.Error(), Status: status})
}

// wantsNDJSON reports whether the request asked for a streaming lane:
// the NDJSON media type anywhere in Accept, or ?stream=1 for clients
// that cannot set headers.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), NDJSONContentType) ||
		r.URL.Query().Get("stream") == "1"
}

// handleEvaluate serves POST /v1/evaluate. With ?trace=1 the request
// runs under a fresh obs.Trace and the response carries the Chrome
// trace_event JSON of its own evaluation — per-request profiling with
// no server-side state.
func (t *Tier) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := t.decode(w, r, &req); err != nil {
		t.writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), t.tc.Timeout)
	defer cancel()
	var tr *obs.Trace
	if r.URL.Query().Get("trace") == "1" {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	root := obs.StartSpan(ctx, "serve.request")
	root.SetAttr("request_id", obs.RequestID(ctx))
	resp, err := t.tc.Point(ctx, req, "")
	root.End()
	if err != nil {
		t.writeError(w, err)
		return
	}
	resp.Trace = tr
	t.writeJSON(w, http.StatusOK, resp)
}

// handleSweep serves POST /v1/sweep: points fan out concurrently (each
// point's real work still bounded by the tier: the worker pool, or the
// coordinator's per-shard slots), and per-point failures come back
// inline instead of aborting the batch. With Accept:
// application/x-ndjson the response streams one line per point as it
// completes; the default is the buffered JSON body in input order.
func (t *Tier) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := t.decode(w, r, &req); err != nil {
		t.writeError(w, err)
		return
	}
	if len(req.Points) == 0 {
		t.writeError(w, badRequest(errors.New("serve: sweep carries no Points")))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), t.tc.Timeout)
	defer cancel()

	lines := make(chan SweepStreamLine, len(req.Points))
	for i := range req.Points {
		go func(i int) {
			line := SweepStreamLine{Index: i}
			point, err := t.tc.Point(ctx, req.Points[i], "")
			if err != nil {
				line.Error = err.Error()
			} else {
				line.EvaluateResponse = point
			}
			lines <- line
		}(i)
	}

	if wantsNDJSON(r) {
		t.streamSweep(w, len(req.Points), lines)
		return
	}
	resp := SweepResponse{Points: make([]SweepPointResult, len(req.Points))}
	for range req.Points {
		line := <-lines
		resp.Points[line.Index] = line.SweepPointResult
	}
	t.writeJSON(w, http.StatusOK, resp)
}

// streamSweep writes the NDJSON lane: one compact SweepStreamLine per
// completed point, flushed immediately so the first result reaches the
// client while later points are still evaluating. Write failures abandon
// the stream (the client is gone); evaluation failures are inline Error
// lines, never a broken stream.
func (t *Tier) streamSweep(w http.ResponseWriter, n int, lines <-chan SweepStreamLine) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		line := <-lines
		start := time.Now()
		if err := enc.Encode(line); err != nil {
			return
		}
		t.encode.Observe(time.Since(start).Seconds())
		t.streamLines.Inc()
		rc.Flush() //nolint:errcheck // an unflushable writer just buffers
	}
}

// handleHealthz serves GET /healthz.
func (t *Tier) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t.writeJSON(w, http.StatusOK, t.tc.Health)
}

// handleMetrics serves GET /metrics: the tier's JSON snapshot by
// default, or the Prometheus text exposition (version 0.0.4) with
// ?format=prometheus — both views of the same registry, so a scraper
// and a dashboard can never disagree on the numbers.
func (t *Tier) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.tc.Metrics.WritePrometheus(w) //nolint:errcheck // a failed write means the scraper is gone
		return
	}
	t.writeJSON(w, http.StatusOK, t.tc.Snapshot())
}

// cell is the tier's cellEval: one job cell through Point. A cell the
// tier sheds (a 429, or the tier's Shed error) waits a second and runs
// again instead of failing the job: shedding protects request latency,
// and job cells are deferrable by definition.
func (t *Tier) cell(ctx context.Context, req EvaluateRequest, routeKey string) ([]arch.Report, error) {
	for {
		resp, err := t.tc.Point(ctx, req, routeKey)
		if err == nil || StatusOf(err) != http.StatusTooManyRequests && !errors.Is(err, t.tc.Shed) {
			return resp.Reports, err
		}
		timer := time.NewTimer(time.Second)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("serve: job cell canceled during backoff: %w", ctx.Err())
		}
	}
}

// ListenAndServe serves the tier on addr until ctx is canceled, then
// drains in-flight requests for up to the tier's timeout plus a second
// and returns (the SIGTERM path of cmd/refocus-serve). It announces the
// bound address on out, so addr may use port 0 in tests.
func (t *Tier) ListenAndServe(ctx context.Context, addr string, out io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintf(out, "refocus-serve listening on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: t.mux, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
		drain, cancel := context.WithTimeout(context.Background(), t.tc.Timeout+time.Second)
		defer cancel()
		if err := hs.Shutdown(drain); err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		fmt.Fprintln(out, "refocus-serve drained and stopped")
		return nil
	}
}
