// Package serve implements refocus-serve: a long-running HTTP JSON API in
// front of the internal/sim pipeline, playing the role the paper's custom
// simulator plays for design-space exploration at scale. Design points
// arrive as preset names or -config-file-schema JSON (plus per-request
// overrides), are evaluated on a bounded worker pool reusing
// arch.EvaluateAll's parallelism, and land in an LRU result cache keyed by
// the canonical config hash + network hash, so repeated sweep queries are
// served without re-evaluation — the electronic analogue of the paper's
// "reuse what you already computed" theme. Workloads arrive as registered
// names (case-insensitive) or inline NetworkSpec JSON in the nn package's
// tagged-union schema.
//
// Endpoints:
//
//	POST /v1/evaluate  one design point, one network ("all" or inline spec)
//	POST /v1/sweep     batch of design points, fanned out concurrently
//	GET  /v1/presets   the preset/network vocabulary
//	GET  /v1/networks  the workload registry with hashes and layer kinds
//	GET  /healthz      liveness probe
//	GET  /metrics      request counts, cache hit/miss, latency histograms
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
	"refocus/internal/obs"
	"refocus/internal/sim"
)

// Config tunes the service's concurrency and protection limits. The zero
// value is usable: New fills unset fields with the defaults below.
type Config struct {
	// Workers bounds concurrent design-point evaluations (the worker
	// pool). Each evaluation internally fans networks out across
	// GOMAXPROCS cores (arch.ParallelFor), so Workers is a request-level
	// bound, not a core count. Default 4.
	Workers int
	// CacheSize is the LRU capacity in (config, network) reports.
	// Default 4096.
	CacheSize int
	// RequestTimeout bounds one request's total evaluation time,
	// including time spent queued for a worker slot. Default 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body size; larger bodies get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// QueueDepth bounds how many requests may wait for a worker slot
	// beyond the Workers already evaluating. An arrival past the bound
	// is shed immediately with 429 + Retry-After — the service degrades
	// by refusing work it cannot schedule, never by queueing without
	// limit (unbounded queues hang clients and OOM the process).
	// Default 64.
	QueueDepth int
	// Store overrides the result cache. nil means an in-process LRU of
	// CacheSize entries; point several shards' DiskStores at one
	// directory and results are shared cluster-wide and survive
	// restarts. CacheSize still sizes the memory tier gauge-side.
	Store ResultStore
	// Limits bounds inline NetworkSpec submissions (zero fields get the
	// package defaults). Registry networks are trusted and exempt; an
	// inline spec past a limit is rejected with a structured 422.
	Limits SpecLimits
	// CampaignDir is the robustness-campaign checkpoint directory.
	// Empty disables durability: campaigns still run, but die with the
	// process instead of resuming from where they stopped.
	CampaignDir string
	// OptimizeDir is the design-space-search checkpoint directory.
	// Empty disables durability: searches still run, but die with the
	// process instead of resuming from where they stopped.
	OptimizeDir string
	// Chaos is the opt-in fault-injection middleware for resilience
	// testing; the zero value (the default) injects nothing.
	Chaos ChaosConfig
	// Logger receives one structured line per completed request
	// (request id, method, path, status, duration). nil silences
	// request logging — the default, so embedding tests stay quiet.
	Logger *slog.Logger
}

// withDefaults returns the config with unset fields defaulted.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	c.Limits = c.Limits.WithDefaults()
	if c.Logger == nil {
		// Discard at the handler level: a nil slog.Logger would panic,
		// and a level above Error suppresses every record.
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	return c
}

// Server is the evaluation service: the HTTP front, result cache, worker
// pool and metrics. Create with New; it is safe for concurrent use.
type Server struct {
	*Tier
	cfg     Config
	cache   ResultStore
	metrics *Metrics
	slots   chan struct{}
	// admitted counts requests between acquireSlot entry and releaseSlot
	// (waiting or evaluating); past Workers+QueueDepth arrivals are shed.
	admitted atomic.Int64
	chaos    *chaosInjector
	jobs     *Jobs
}

// New builds a Server from the config (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := cfg.Store
	if cache == nil {
		cache = newReportCache(cfg.CacheSize)
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		metrics: newMetrics(cache),
		slots:   make(chan struct{}, cfg.Workers),
		chaos:   newChaosInjector(cfg.Chaos),
	}
	s.Tier = NewTier(TierConfig{
		Point: func(ctx context.Context, req EvaluateRequest, _ string) (EvaluateResponse, error) {
			return s.evaluatePoint(ctx, req)
		},
		Timeout:       cfg.RequestTimeout,
		MaxBodyBytes:  cfg.MaxBodyBytes,
		Metrics:       s.metrics.reg,
		InFlightGauge: "refocus_in_flight",
		StreamCounter: "refocus_sweep_stream_lines_total",
		Snapshot:      func() any { return s.MetricsSnapshot() },
		Health:        map[string]string{"status": "ok"},
		Guard:         s.withChaos,
		Logger:        cfg.Logger,
	})
	s.Handle("GET /v1/presets", "/v1/presets", s.handlePresets)
	s.Handle("GET /v1/networks", "/v1/networks", s.handleNetworks)
	var err error
	s.jobs, err = NewJobs(s.Tier, cfg.CampaignDir, cfg.OptimizeDir, cfg.Workers)
	if err != nil {
		// Only a checkpoint-directory MkdirAll can fail here; jobs lose
		// durability but the service still serves.
		cfg.Logger.Error("job checkpoint dir unavailable; running without durability", "err", err)
		s.jobs, _ = NewJobs(s.Tier, "", "", cfg.Workers)
	}
	return s
}

// Close cancels any running robustness campaigns and design-space
// searches and waits for them to unwind; their checkpoints survive for
// the next incarnation to resume.
func (s *Server) Close() { s.jobs.Close() }

// MetricsSnapshot returns the current counters — what GET /metrics serves.
func (s *Server) MetricsSnapshot() Snapshot {
	snap := s.metrics.snapshot(s.cache)
	snap.InFlight, snap.Endpoints = s.InFlight(), s.endpointStats()
	snap.Robustness, snap.Optimize = s.jobs.Stats()
	return snap
}

// EvaluateRequest names one design point and benchmark set. Exactly one
// of Preset or Config must be set; Overrides and Network are optional.
type EvaluateRequest struct {
	// Preset is a registry name or alias ("fb", "ReFOCUS-FF", ...).
	Preset string `json:",omitempty"`
	// Config is a design point in the -config-file schema: every
	// arch.SystemConfig field plus an optional "Base" preset the file's
	// fields overlay. Unknown fields are rejected.
	Config json.RawMessage `json:",omitempty"`
	// Overrides is a partial SystemConfig merged onto the resolved
	// design point before validation — the per-request twin of the
	// command-line -batch/-M style flags. Unknown fields are rejected.
	Overrides json.RawMessage `json:",omitempty"`
	// Network is a registered network name (case-insensitive) or "all";
	// empty means "all". Mutually exclusive with NetworkSpec.
	Network string `json:",omitempty"`
	// NetworkSpec is an inline workload in the nn package's tagged-union
	// network schema (the -dump-network form). The spec is validated and
	// cached under its content hash, so resubmitting the same spec — or
	// naming the identical registry network — is a cache hit.
	NetworkSpec json.RawMessage `json:",omitempty"`
	// Faults is an optional faults.FaultSet in its JSON schema. When
	// present (and non-zero) the request evaluates the degraded machine
	// the fault set leaves behind, and the response carries the
	// Degradation record; cache entries for degraded reports are keyed
	// separately so they never alias healthy ones.
	Faults json.RawMessage `json:",omitempty"`
}

// EvaluateResponse is the result of one design-point evaluation.
type EvaluateResponse struct {
	// Config is the resolved design point's name; ConfigHash its stable
	// identity (arch.ConfigHash) — the cache-key prefix.
	Config     string
	ConfigHash string
	// Networks lists the evaluated network names in report order;
	// NetworkHashes their canonical content hashes (nn.NetworkHash) —
	// the cache-key suffixes.
	Networks      []string
	NetworkHashes []string
	// CacheHits/CacheMisses count how many of this request's
	// (config, network) pairs were served from the result cache.
	CacheHits   int
	CacheMisses int
	// Reports are the full evaluation reports, one per network.
	Reports []arch.Report
	// Degradation records the fault remapping when the request carried a
	// non-zero fault set; nil for healthy evaluations. Reports then hold
	// the degraded machine's numbers.
	Degradation *faults.Degradation `json:",omitempty"`
	// Trace is the Chrome trace_event JSON of this request's own
	// evaluation, present only when the request was made with ?trace=1.
	Trace *obs.Trace `json:",omitempty"`
}

// SweepRequest is a batch of design points evaluated concurrently.
type SweepRequest struct {
	Points []EvaluateRequest
}

// SweepPointResult is one sweep entry: the response, or an error string
// for points that failed (a bad point never aborts the batch).
type SweepPointResult struct {
	EvaluateResponse
	Error string `json:",omitempty"`
}

// SweepResponse carries one result per requested point, in input order.
type SweepResponse struct {
	Points []SweepPointResult
}

// NDJSONContentType is the media type of the streaming sweep lane: a
// request carrying it in Accept gets one SweepStreamLine JSON object per
// line, each flushed as its point completes, instead of the buffered
// SweepResponse body.
const NDJSONContentType = "application/x-ndjson"

// SweepStreamLine is one NDJSON line of a streamed sweep. Lines arrive
// in completion order, not input order; Index maps each line back to its
// position in the request's Points array, so a client reassembling the
// buffered view sorts on it. The embedded fields are exactly a buffered
// SweepPointResult — the two encodings carry identical information.
type SweepStreamLine struct {
	// Index is the point's position in the request's Points array.
	Index int
	SweepPointResult
}

// PresetInfo is one /v1/presets vocabulary entry.
type PresetInfo struct {
	Name        string
	Aliases     []string `json:",omitempty"`
	Description string
}

// PresetsResponse is the /v1/presets payload: the design-point and
// benchmark vocabulary a request may name.
type PresetsResponse struct {
	Presets  []PresetInfo
	Networks []string
}

// ErrorResponse is the structured error payload every non-2xx response
// carries. Error preserves the pipeline's field-naming messages (e.g.
// `arch: config X: feedback buffer needs Reuses >= 1, got 0`).
type ErrorResponse struct {
	Error  string
	Status int
}

// apiError pairs an HTTP status with a cause for writeError. A nonzero
// retryAfter additionally sets the Retry-After response header — the
// contract shed and chaos-injected responses use to tell well-behaved
// clients when to come back.
type apiError struct {
	status     int
	retryAfter int // seconds; 0 means no Retry-After header
	err        error
}

// Error implements the error interface.
func (e *apiError) Error() string { return e.err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *apiError) Unwrap() error { return e.err }

// badRequest tags an error as a 400. An error already carrying a status
// tag (a 422 from the spec limits, a 429 from shedding) keeps it — the
// more specific classification wins.
func badRequest(err error) error {
	var ae *apiError
	if errors.As(err, &ae) {
		return err
	}
	return &apiError{status: http.StatusBadRequest, err: err}
}

// StatusOf maps an error to its HTTP status: explicit apiError tags win,
// then an error status another server answered with (anything in the
// chain with an HTTPStatus method, such as a shard's error the
// coordinator relays), context cancellation/timeout becomes 503,
// oversized bodies 413, and anything else is a 500.
func StatusOf(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	var relayed interface{ HTTPStatus() int }
	if errors.As(err, &relayed) && relayed.HTTPStatus() >= 400 {
		return relayed.HTTPStatus()
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// resolveRequestConfig turns a request into a validated design point:
// preset or config-file schema, then overrides, then Validate.
func resolveRequestConfig(req EvaluateRequest) (arch.SystemConfig, error) {
	cfg, err := sim.ResolveDesignPoint(req.Preset, req.Config)
	if err != nil {
		return cfg, err
	}
	if len(req.Overrides) > 0 {
		dec := json.NewDecoder(bytes.NewReader(req.Overrides))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return cfg, fmt.Errorf("serve: applying Overrides: %w", err)
		}
	}
	return cfg, cfg.Validate()
}

// acquireSlot blocks until a worker slot frees up or the request dies —
// unless the bounded queue ahead of the pool is already full, in which
// case the request is shed immediately with 429 + Retry-After. Shedding
// keeps the wait line finite: an overloaded server answers fast with
// "come back later" instead of hanging every caller until timeout.
func (s *Server) acquireSlot(ctx context.Context) error {
	if n := s.admitted.Add(1); n > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.admitted.Add(-1)
		s.metrics.shed.Add(1)
		return &apiError{
			status:     http.StatusTooManyRequests,
			retryAfter: 1,
			err:        errors.New("serve: worker pool saturated and queue full; retry later"),
		}
	}
	select {
	case s.slots <- struct{}{}:
		return nil // admitted stays counted until releaseSlot
	case <-ctx.Done():
		s.admitted.Add(-1)
		return fmt.Errorf("serve: waiting for a worker slot: %w", ctx.Err())
	}
}

// releaseSlot returns a slot to the pool.
func (s *Server) releaseSlot() {
	<-s.slots
	s.admitted.Add(-1)
}

// resolveRequestFaults parses and validates a request's optional fault
// set against the resolved config. A zero fault set is reported as
// absent so healthy requests stay on the healthy cache keys.
func resolveRequestFaults(req EvaluateRequest, cfg arch.SystemConfig) (*faults.FaultSet, error) {
	if len(req.Faults) == 0 {
		return nil, nil
	}
	fs, err := faults.Parse(req.Faults)
	if err != nil {
		return nil, err
	}
	return fs.ForConfig(cfg)
}

// evaluatePoint resolves and evaluates one request, serving every
// (config, network) pair it can from the cache and running the rest on
// the worker pool in one evaluation fan-out. Requests carrying a fault
// set evaluate the degraded machine; their cache keys get the fault
// set's hash appended, so degraded reports never masquerade as healthy.
func (s *Server) evaluatePoint(ctx context.Context, req EvaluateRequest) (EvaluateResponse, error) {
	if err := ctx.Err(); err != nil {
		return EvaluateResponse{}, err
	}
	resolveSpan := obs.StartSpan(ctx, "serve.resolve")
	r, err := resolveRequest(req, s.cfg.Limits)
	resolveSpan.SetAttr("config", r.cfg.Name)
	resolveSpan.End()
	if err != nil {
		return EvaluateResponse{}, err
	}
	resp := EvaluateResponse{
		Config:        r.cfg.Name,
		ConfigHash:    r.cfgHash,
		Networks:      r.names,
		NetworkHashes: r.hashes,
		Reports:       make([]arch.Report, len(r.hashes)),
	}
	if r.faults != nil {
		// The remapping record is cheap to recompute, so full cache hits
		// still answer with an honest Degradation block.
		_, deg, err := r.faults.Degrade(r.cfg)
		if err != nil {
			return EvaluateResponse{}, badRequest(err)
		}
		resp.Degradation = &deg
	}
	lookupSpan := obs.StartSpan(ctx, "serve.cache_lookup")
	lookupStart := time.Now()
	var missingIdx []int
	var missingKeys []string
	for i, hash := range r.hashes {
		key := r.prefix + "|" + hash
		if rep, ok := s.cache.Get(key); ok {
			resp.Reports[i] = rep
			resp.CacheHits++
		} else {
			missingIdx = append(missingIdx, i)
			missingKeys = append(missingKeys, key)
			resp.CacheMisses++
		}
	}
	s.metrics.cacheHits.Add(int64(resp.CacheHits))
	s.metrics.cacheMisses.Add(int64(resp.CacheMisses))
	s.metrics.cacheLookup.Observe(time.Since(lookupStart).Seconds())
	lookupSpan.SetAttr("hits", resp.CacheHits)
	lookupSpan.SetAttr("misses", resp.CacheMisses)
	lookupSpan.End()

	if len(missingIdx) > 0 {
		waitSpan := obs.StartSpan(ctx, "serve.queue_wait")
		waitStart := time.Now()
		err := s.acquireSlot(ctx)
		s.metrics.queueWait.Observe(time.Since(waitStart).Seconds())
		waitSpan.End()
		if err != nil {
			return EvaluateResponse{}, err
		}
		if s.chaos.maybeSlow(ctx) {
			s.metrics.chaosSlowed.Add(1)
		}
		evalSpan := obs.StartSpan(ctx, "serve.evaluate")
		evalSpan.SetAttr("networks", len(missingIdx))
		evalStart := time.Now()
		// Only a miss needs the networks themselves.
		missing := make([]nn.Network, len(missingIdx))
		for j, i := range missingIdx {
			missing[j] = r.network(i)
		}
		reports, _, err := faults.EvaluateAllCtx(ctx, r.cfg, r.faults, missing)
		s.metrics.evaluate.Observe(time.Since(evalStart).Seconds())
		evalSpan.End()
		s.releaseSlot()
		if err != nil {
			return EvaluateResponse{}, badRequest(err)
		}
		s.metrics.evaluations.Add(int64(len(missing)))
		for j, rep := range reports {
			resp.Reports[missingIdx[j]] = rep
			s.cache.Put(missingKeys[j], rep)
		}
	}
	return resp, nil
}

// handlePresets serves GET /v1/presets.
func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	resp := PresetsResponse{}
	for _, p := range arch.Presets() {
		resp.Presets = append(resp.Presets, PresetInfo{
			Name:        p.Name,
			Aliases:     p.Aliases,
			Description: p.Description,
		})
	}
	resp.Networks = nn.Names()
	s.writeJSON(w, http.StatusOK, resp)
}

// resolvedRequest is an evaluate request resolved and validated: its
// design point and config hash, its fault set (nil for the healthy
// machine), and the names and canonical hashes of its networks. prefix is
// the config hash, joined with the fault set's hash when one rides along,
// so the cache key of network i is prefix|hashes[i] and degraded reports
// never alias healthy ones. The networks themselves stay where they are,
// in the registry (registered) or in the parsed inline spec, until a
// cache miss asks for one.
type resolvedRequest struct {
	cfg           arch.SystemConfig
	cfgHash       string
	faults        *faults.FaultSet
	names, hashes []string
	registered    []nn.Registered // nil for an inline spec
	spec          nn.Network
	prefix        string
}

// network returns network i to evaluate: a clone of the registry entry,
// or the request's own parsed spec.
func (r *resolvedRequest) network(i int) nn.Network {
	if r.registered == nil {
		return r.spec
	}
	return r.registered[i].Network()
}

// resolveNetworks resolves the request's workload naming: an inline
// NetworkSpec (strictly parsed, validated, checked against the resource
// limits and hashed), or a registered name / "all" (empty defaults to
// "all"), whose names and load-time hashes are read from the registry
// without copying a network.
func (r *resolvedRequest) resolveNetworks(req EvaluateRequest, lim SpecLimits) error {
	if len(req.NetworkSpec) > 0 {
		if req.Network != "" {
			return errors.New("serve: request names both Network and NetworkSpec; pick one")
		}
		net, err := nn.ParseNetwork(req.NetworkSpec)
		if err != nil {
			return err
		}
		if err := lim.check(net); err != nil {
			return err
		}
		hash, err := nn.NetworkHash(net)
		if err != nil {
			return err
		}
		r.spec, r.names, r.hashes = net, []string{net.Name}, []string{hash}
		return nil
	}
	network := req.Network
	if network == "" {
		network = "all"
	}
	regs, err := sim.ResolveRegistered(network)
	if err != nil {
		return err
	}
	r.registered = regs
	r.names, r.hashes = make([]string, len(regs)), make([]string, len(regs))
	for i, reg := range regs {
		r.names[i], r.hashes[i] = reg.Name(), reg.Hash()
	}
	return nil
}

// resolveRequest is the one resolution of an evaluate request, shared by
// the worker (evaluatePoint) and the coordinator (RouteKey). Every error
// is the request's own and comes back tagged 400, unless it already
// carries a more specific tag (the spec limits' 422).
func resolveRequest(req EvaluateRequest, lim SpecLimits) (r resolvedRequest, err error) {
	defer func() {
		if err != nil {
			err = badRequest(err)
		}
	}()
	if r.cfg, err = resolveRequestConfig(req); err != nil {
		return r, err
	}
	if r.faults, err = resolveRequestFaults(req, r.cfg); err != nil {
		return r, err
	}
	if err = r.resolveNetworks(req, lim); err != nil {
		return r, err
	}
	if r.cfgHash, err = arch.ConfigHash(r.cfg); err != nil {
		return r, err
	}
	r.prefix = r.cfgHash
	if r.faults != nil {
		fsHash, err := r.faults.Hash()
		if err != nil {
			return r, err
		}
		r.prefix += "|" + fsHash
	}
	return r, nil
}

// RouteKey returns the canonical routing identity of one evaluate
// request: its cache-key prefix (the config hash, plus the fault-set hash
// when a non-zero fault set rides along) joined with the hash of every
// network it evaluates by "|". It comes from the same resolveRequest the
// worker keys its cache with, so requests that resolve to the same design
// point, fault set and workloads share a key however they were spelled,
// and the cluster coordinator, placing requests on worker shards by this
// key, sends all cache keys of one request to one shard and repeats to
// where their results already are. Validation failures carry the
// evaluate handler's status tags (400, or 422 for specs past lim), so
// the coordinator rejects bad points at the edge without a shard round
// trip.
func RouteKey(req EvaluateRequest, lim SpecLimits) (string, error) {
	r, err := resolveRequest(req, lim)
	if err != nil {
		return "", err
	}
	return r.prefix + "|" + strings.Join(r.hashes, "|"), nil
}

// NetworkInfo is one /v1/networks vocabulary entry: a registered workload,
// its canonical content hash (the cache-key suffix), and its shape.
type NetworkInfo struct {
	Name string
	// Hash is nn.NetworkHash of the registry entry; an inline spec that
	// hashes the same shares its cache entries.
	Hash string
	// Layers counts layer instances (repeats expanded); GMACs is the
	// total multiply-accumulate count in billions.
	Layers int
	GMACs  float64
	// Kinds lists the distinct layer kinds in network order.
	Kinds []string
}

// NetworksResponse is the /v1/networks payload.
type NetworksResponse struct {
	Networks []NetworkInfo
}

// handleNetworks serves GET /v1/networks: the workload registry.
func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	resp := NetworksResponse{}
	hashes := nn.Hashes()
	for i, n := range nn.Networks() {
		seen := map[nn.LayerKind]bool{}
		info := NetworkInfo{Name: n.Name, Hash: hashes[i], Layers: n.LayerCount(), GMACs: n.TotalMACs() / 1e9}
		for _, l := range n.Layers {
			if k := l.Kind(); !seen[k] {
				seen[k] = true
				info.Kinds = append(info.Kinds, string(k))
			}
		}
		resp.Networks = append(resp.Networks, info)
	}
	s.writeJSON(w, http.StatusOK, resp)
}
