package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

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
	// tuned for fast failover: 1 retry, breaker threshold 2, and one
	// HTTPClient whose connection pool all shard clients share.
	Client serveclient.Config
	// Limits are the inline-spec resource limits enforced at the edge —
	// rejecting an oversized spec here costs no shard round trip. Zero
	// fields get the serve package defaults.
	Limits serve.SpecLimits
	// Logger receives one line per request and per dispatched point; nil
	// silences it.
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
	if c.Client.HTTPClient == nil {
		// One connection pool for every shard client, deep enough that
		// each dispatch a shard can see at once (ShardConcurrency per
		// primary, hedged onto by up to Attempts predecessors) reuses a
		// kept-alive connection instead of dialing and dropping one. The
		// same bound caps the connections per shard, so a dial racing a
		// connection's return cannot leave a spare one behind.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = c.ShardConcurrency * c.Attempts
		tr.MaxConnsPerHost = tr.MaxIdleConnsPerHost
		tr.MaxIdleConns = tr.MaxIdleConnsPerHost * len(c.Shards)
		c.Client.HTTPClient = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	c.Limits = c.Limits.WithDefaults()
	return c
}

// Coordinator fronts a set of worker shards with the single-node serve
// API, mounted through the same serve.Tier front the worker uses. Each
// point routes by serve.RouteKey on the consistent-hash ring, dispatches
// through the per-shard serveclient (retries, breaker) with hedging onto
// ring successors, and — because shards key their caches by the same
// identity — turns cluster-wide repeats into cache hits on whichever
// shard owns them.
type Coordinator struct {
	*serve.Tier
	cfg     Config
	ring    *Ring
	clients map[string]*serveclient.Client
	sems    map[string]chan struct{}
	metrics *Metrics
	jobs    *serve.Jobs
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
	c.Tier = serve.NewTier(serve.TierConfig{
		Point:         c.dispatch,
		Shed:          serveclient.ErrShed,
		Timeout:       cfg.SweepTimeout,
		MaxBodyBytes:  cfg.MaxBodyBytes,
		Metrics:       c.metrics.reg,
		InFlightGauge: "refocus_cluster_in_flight",
		StreamCounter: "refocus_cluster_stream_lines_total",
		Snapshot:      func() any { return c.MetricsSnapshot() },
		Health:        HealthResponse{Status: "ok", Shards: len(cfg.Shards)},
		Logger:        cfg.Logger,
	})
	// Job cells fan out across the whole cluster, so the per-job bound
	// scales with the fleet rather than one worker's pool.
	c.jobs, err = serve.NewJobs(c.Tier, cfg.CampaignDir, cfg.OptimizeDir, cfg.ShardConcurrency*len(cfg.Shards))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return c, nil
}

// Close cancels any running robustness campaigns and design-space
// searches and waits for them to unwind (their checkpoints survive for
// the next incarnation to resume), then drops the idle shard
// connections.
func (c *Coordinator) Close() {
	c.jobs.Close()
	c.cfg.Client.HTTPClient.CloseIdleConnections()
}

// MetricsSnapshot returns the current counters — what GET /metrics serves.
func (c *Coordinator) MetricsSnapshot() Snapshot {
	snap := c.metrics.snapshot()
	snap.InFlight, snap.StreamLines = c.InFlight(), c.StreamLines()
	snap.Robustness, snap.Optimize = c.jobs.Stats()
	return snap
}

// dispatch places one evaluate request on the ring and runs it through
// the hedged client chain: the owning shard first, then ring successors
// on failure or hedge expiry. An empty key places the request by
// serve.RouteKey; job cells supply their own (robustness campaigns
// route each trial by its trial seed), so a fixed cell always lands on
// the same shard regardless of which process (or incarnation)
// dispatches it.
func (c *Coordinator) dispatch(ctx context.Context, req serve.EvaluateRequest, key string) (serve.EvaluateResponse, error) {
	if key == "" {
		var err error
		if key, err = serve.RouteKey(req, c.cfg.Limits); err != nil {
			return serve.EvaluateResponse{}, err
		}
	}
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
		return serve.EvaluateResponse{}, fmt.Errorf("cluster: waiting for shard slot: %w", ctx.Err())
	}
	defer func() { <-sem }()

	c.metrics.points.Inc()
	sm := c.metrics.perShard[primary]
	sm.routed.Inc()
	res, err := serveclient.EvaluateHedged(ctx, clients, c.cfg.HedgeDelay, req)
	if err != nil {
		c.metrics.pointErrs.Inc()
		span.SetAttr("outcome", "failed")
		span.End()
		c.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "point failed",
			slog.String("shard", primary), slog.String("error", err.Error()))
		return serve.EvaluateResponse{}, err
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
	c.cfg.Logger.LogAttrs(ctx, slog.LevelDebug, "point served",
		slog.String("shard", primary), slog.String("winner", winner),
		slog.Int("attempts", res.Attempts))
	return res.Resp, nil
}

// HealthResponse is the coordinator's /healthz payload.
type HealthResponse struct {
	// Status is "ok" whenever the coordinator itself is up — shard
	// failures degrade service but do not fail liveness.
	Status string
	// Shards is the ring member count.
	Shards int
}
