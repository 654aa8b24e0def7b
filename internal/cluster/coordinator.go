package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"refocus/internal/arch"
	"refocus/internal/obs"
	"refocus/internal/serve"
	"refocus/internal/serveclient"
)

// Config tunes the coordinator. Shards is required; everything else has
// serving-grade defaults.
type Config struct {
	// Shards are the worker base URLs ("http://127.0.0.1:9101", ...).
	// Order is only cosmetic — placement comes from the ring.
	Shards []string
	// VNodes is the ring's per-shard virtual-node count; < 1 means
	// DefaultVNodes.
	VNodes int
	// Seed seeds ring placement; every coordinator over one cluster must
	// share it.
	Seed uint64
	// HedgeDelay is how long a point waits on its primary shard before a
	// duplicate attempt is launched on the next ring successor; <= 0
	// disables latency hedging (failover on error still happens).
	// Default 250ms.
	HedgeDelay time.Duration
	// Attempts caps how many ring successors one point may try (primary
	// included). Default 2, clamped to the shard count.
	Attempts int
	// ShardConcurrency bounds concurrent dispatches per primary shard, so
	// a huge sweep saturates the cluster evenly instead of flooding one
	// shard's queue into shedding. Default 8.
	ShardConcurrency int
	// SweepTimeout bounds one whole sweep; individual points inherit it.
	// Default 120s.
	SweepTimeout time.Duration
	// MaxBodyBytes caps request body size; larger bodies get 413.
	// Default 8 MiB (sweeps are batches; the worker default is 1 MiB).
	MaxBodyBytes int64
	// CampaignDir is the robustness-campaign checkpoint directory for
	// campaigns the coordinator runs (trials fan out across the shards).
	// Empty disables durability.
	CampaignDir string
	// OptimizeDir is the design-space-search checkpoint directory for
	// searches the coordinator runs (candidate evaluations fan out across
	// the shards). Empty disables durability.
	OptimizeDir string
	// Client is the template for the per-shard serveclient configuration
	// (BaseURL is overwritten per shard). The zero value gets defaults
	// tuned for fast failover: 1 retry, breaker threshold 2.
	Client serveclient.Config
	// Limits are the inline-spec resource limits enforced at the edge —
	// rejecting an oversized spec here costs no shard round trip. Zero
	// fields get the serve package defaults.
	Limits serve.SpecLimits
	// Logger receives one line per dispatched point; nil silences it.
	Logger *slog.Logger
	// Trace, when non-nil, collects one span per dispatched point with
	// its route and outcome — the coordinator-side flight recorder the CI
	// job uploads as an artifact.
	Trace *obs.Trace
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.VNodes < 1 {
		c.VNodes = DefaultVNodes
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 250 * time.Millisecond
	}
	if c.Attempts < 1 {
		c.Attempts = 2
	}
	if c.Attempts > len(c.Shards) {
		c.Attempts = len(c.Shards)
	}
	if c.ShardConcurrency < 1 {
		c.ShardConcurrency = 8
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Client.MaxRetries == 0 {
		c.Client.MaxRetries = 1
	}
	if c.Client.BreakerThreshold == 0 {
		c.Client.BreakerThreshold = 2
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	c.Limits = c.Limits.WithDefaults()
	return c
}

// Coordinator fronts a set of worker shards with the single-node serve
// API: POST /v1/evaluate and /v1/sweep (buffered and NDJSON lanes),
// GET /healthz and /metrics. Each request routes by serve.RouteKey on
// the consistent-hash ring, dispatches through the per-shard serveclient
// (retries, breaker) with hedging onto ring successors, and — because
// shards key their caches by the same identity — turns cluster-wide
// repeats into cache hits on whichever shard owns them.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	clients map[string]*serveclient.Client
	sems    map[string]chan struct{}
	metrics *Metrics
	mux     *http.ServeMux
	logger  *slog.Logger
	jobs    *serve.Jobs
	tier    serve.Tier
}

// New builds a Coordinator and its per-shard clients.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Shards, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		clients: make(map[string]*serveclient.Client, len(cfg.Shards)),
		sems:    make(map[string]chan struct{}, len(cfg.Shards)),
		metrics: newClusterMetrics(cfg.Shards),
		mux:     http.NewServeMux(),
		logger:  cfg.Logger,
	}
	for _, s := range cfg.Shards {
		ccfg := cfg.Client
		ccfg.BaseURL = s
		cl, err := serveclient.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %s: %w", s, err)
		}
		c.clients[s] = cl
		c.sems[s] = make(chan struct{}, cfg.ShardConcurrency)
	}
	c.tier = serve.Tier{MaxBodyBytes: cfg.MaxBodyBytes, WriteJSON: c.writeJSON, StreamLine: c.metrics.stream.Inc}
	// Job cells fan out across the whole cluster, so the per-job bound
	// scales with the fleet rather than one worker's pool.
	c.jobs, err = serve.NewJobs(c.metrics.reg, cfg.CampaignDir, cfg.OptimizeDir, cfg.ShardConcurrency*len(cfg.Shards), c.dispatchCell)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.mux.Handle("POST /v1/evaluate", c.instrument("/v1/evaluate", c.handleEvaluate))
	c.mux.Handle("POST /v1/sweep", c.instrument("/v1/sweep", c.handleSweep))
	c.jobs.Mount(c.mux, c.instrument, c.tier)
	c.mux.Handle("GET /healthz", c.instrument("/healthz", c.handleHealthz))
	c.mux.Handle("GET /metrics", c.instrument("/metrics", c.handleMetrics))
	return c, nil
}

// Close cancels any running robustness campaigns and design-space
// searches and waits for them to unwind; their checkpoints survive for
// the next incarnation to resume.
func (c *Coordinator) Close() { c.jobs.Close() }

// Handler returns the coordinator's HTTP handler (all routes).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Ring exposes the placement ring (read-only) for tests and tooling.
func (c *Coordinator) Ring() *Ring { return c.ring }

// MetricsSnapshot returns the current counters — what GET /metrics serves.
func (c *Coordinator) MetricsSnapshot() Snapshot {
	snap := c.metrics.snapshot()
	snap.Robustness, snap.Optimize = c.jobs.Stats()
	return snap
}

// instrument tracks in-flight requests. The coordinator keeps no
// per-route metrics, so the route label is unused.
func (c *Coordinator) instrument(_ string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.metrics.inFlight.Add(1)
		defer c.metrics.inFlight.Add(-1)
		h(w, r)
	})
}

// writeJSON sends v with the given status.
func (c *Coordinator) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a failed write means the client is gone
}

// dispatch places one evaluate request on the ring and runs it through
// the hedged client chain: the owning shard first, then ring successors
// on failure or hedge expiry. The returned shard is the winner's base
// URL.
func (c *Coordinator) dispatch(ctx context.Context, req serve.EvaluateRequest) (serve.EvaluateResponse, string, error) {
	key, err := serve.RouteKey(req, c.cfg.Limits)
	if err != nil {
		return serve.EvaluateResponse{}, "", err
	}
	return c.dispatchKeyed(ctx, req, key)
}

// dispatchKeyed is dispatch with the placement key supplied by the
// caller — robustness campaigns route each trial by its trial seed, so
// a fixed trial always lands on the same shard regardless of which
// process (or incarnation) dispatches it.
func (c *Coordinator) dispatchKeyed(ctx context.Context, req serve.EvaluateRequest, key string) (serve.EvaluateResponse, string, error) {
	targets := c.ring.Successors(key, c.cfg.Attempts)
	primary := targets[0]
	clients := make([]*serveclient.Client, len(targets))
	for i, s := range targets {
		clients[i] = c.clients[s]
	}
	span := obs.StartSpan(obs.WithTrace(ctx, c.cfg.Trace), "cluster.dispatch")
	span.SetAttr("shard", primary)

	sem := c.sems[primary]
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		span.SetAttr("outcome", "canceled")
		span.End()
		return serve.EvaluateResponse{}, "", fmt.Errorf("cluster: waiting for shard slot: %w", ctx.Err())
	}
	defer func() { <-sem }()

	c.metrics.points.Inc()
	sm := c.metrics.shard(primary)
	sm.routed.Inc()
	res, err := serveclient.EvaluateHedged(ctx, clients, c.cfg.HedgeDelay, req)
	if err != nil {
		c.metrics.pointErrs.Inc()
		span.SetAttr("outcome", "failed")
		span.End()
		c.logger.LogAttrs(ctx, slog.LevelWarn, "point failed",
			slog.String("shard", primary), slog.String("error", err.Error()))
		return serve.EvaluateResponse{}, "", err
	}
	if res.Hedged {
		sm.hedges.Inc()
	}
	winner := targets[res.Target]
	if res.Target != 0 {
		sm.failovers.Inc()
	}
	span.SetAttr("winner", winner)
	span.SetAttr("attempts", res.Attempts)
	span.End()
	c.logger.LogAttrs(ctx, slog.LevelDebug, "point served",
		slog.String("shard", primary), slog.String("winner", winner),
		slog.Int("attempts", res.Attempts))
	return res.Resp, winner, nil
}

// handleEvaluate serves POST /v1/evaluate by proxying to the owning
// shard (with failover).
func (c *Coordinator) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req serve.EvaluateRequest
	if err := c.tier.Decode(w, r, &req); err != nil {
		c.tier.WriteError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.SweepTimeout)
	defer cancel()
	resp, _, err := c.dispatch(ctx, req)
	if err != nil {
		c.tier.WriteError(w, err)
		return
	}
	c.writeJSON(w, http.StatusOK, resp)
}

// handleSweep serves POST /v1/sweep: points scatter across the ring
// concurrently (per-shard concurrency bounded) and gather either into
// the buffered SweepResponse or, with Accept: application/x-ndjson, onto
// the streaming lane — the same wire contract the single-node service
// speaks, so clients cannot tell a coordinator from a worker.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req serve.SweepRequest
	if err := c.tier.Decode(w, r, &req); err != nil {
		c.tier.WriteError(w, err)
		return
	}
	if len(req.Points) == 0 {
		c.tier.WriteError(w, serve.BadRequest(errors.New("cluster: sweep carries no Points")))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.SweepTimeout)
	defer cancel()

	lines := make(chan serve.SweepStreamLine, len(req.Points))
	for i := range req.Points {
		go func(i int) {
			line := serve.SweepStreamLine{Index: i}
			resp, _, err := c.dispatch(ctx, req.Points[i])
			if err != nil {
				line.Error = err.Error()
			} else {
				line.EvaluateResponse = resp
			}
			lines <- line
		}(i)
	}

	if serve.WantsNDJSON(r) {
		c.streamSweep(w, len(req.Points), lines)
		return
	}
	resp := serve.SweepResponse{Points: make([]serve.SweepPointResult, len(req.Points))}
	for range req.Points {
		line := <-lines
		resp.Points[line.Index] = line.SweepPointResult
	}
	c.writeJSON(w, http.StatusOK, resp)
}

// streamSweep writes the NDJSON lane, one flushed line per completed
// point.
func (c *Coordinator) streamSweep(w http.ResponseWriter, n int, lines <-chan serve.SweepStreamLine) {
	w.Header().Set("Content-Type", serve.NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		line := <-lines
		if err := enc.Encode(line); err != nil {
			return
		}
		c.metrics.stream.Inc()
		rc.Flush() //nolint:errcheck // an unflushable writer just buffers
	}
}

// dispatchCell is the coordinator's serve.CellEval: a job cell is
// dispatched onto the ring by its route key, riding the same hedged
// client chain (retries, breaker, dead-shard failover) ordinary points
// use. A cell the whole chain sheds waits a second and redispatches.
func (c *Coordinator) dispatchCell(ctx context.Context, req serve.EvaluateRequest, routeKey string) ([]arch.Report, error) {
	for {
		resp, _, err := c.dispatchKeyed(ctx, req, routeKey)
		if !errors.Is(err, serveclient.ErrShed) {
			return resp.Reports, err
		}
		t := time.NewTimer(time.Second)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("cluster: job cell canceled during backoff: %w", ctx.Err())
		}
	}
}

// HealthResponse is the coordinator's /healthz payload.
type HealthResponse struct {
	// Status is "ok" whenever the coordinator itself is up — shard
	// failures degrade service but do not fail liveness.
	Status string
	// Shards is the ring member count.
	Shards int
}

// handleHealthz serves GET /healthz.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Shards: len(c.cfg.Shards)})
}

// handleMetrics serves GET /metrics: JSON by default, Prometheus text
// with ?format=prometheus — mirroring the worker tier.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.metrics.writePrometheus(w) //nolint:errcheck // a failed write means the scraper is gone
		return
	}
	c.writeJSON(w, http.StatusOK, c.MetricsSnapshot())
}

// ListenAndServe runs the coordinator on addr until ctx is canceled,
// then drains in-flight requests — the same lifecycle contract as
// serve.ListenAndServe. It announces the bound address on out, so addr
// may use port 0 in tests.
func ListenAndServe(ctx context.Context, cfg Config, addr string, out io.Writer) error {
	c, err := New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	fmt.Fprintf(out, "refocus-serve coordinating %s shards on http://%s\n",
		strconv.Itoa(len(cfg.Shards)), ln.Addr())
	hs := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("cluster: %w", err)
	case <-ctx.Done():
		drain, cancel := context.WithTimeout(context.Background(), c.cfg.SweepTimeout+time.Second)
		defer cancel()
		if err := hs.Shutdown(drain); err != nil {
			return fmt.Errorf("cluster: shutdown: %w", err)
		}
		fmt.Fprintln(out, "refocus-serve coordinator drained and stopped")
		return nil
	}
}
