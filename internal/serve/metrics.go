package serve

import (
	"time"

	"refocus/internal/obs"
)

// latencyBuckets maps the obs.DefBuckets histogram bounds to the decade
// labels the JSON /metrics payload has always used ("<1ms" … "<10s").
// The two views share one histogram: bucket i of the Prometheus
// exposition is bucket i here, and the final +Inf/overflow bucket is
// labeled ">=10s".
var latencyBuckets = []struct {
	limit time.Duration
	label string
}{
	{time.Millisecond, "<1ms"},
	{10 * time.Millisecond, "<10ms"},
	{100 * time.Millisecond, "<100ms"},
	{time.Second, "<1s"},
	{10 * time.Second, "<10s"},
}

// overflowLabel names the histogram bucket past the last bound.
const overflowLabel = ">=10s"

// endpointMetrics holds one route's registry handles. The counters and
// histogram update lock-free; the route map they live in is guarded by
// Tier.mu only at registration and snapshot time.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter // responses with status >= 400
	latency  *obs.Histogram
}

// observe records one completed request.
func (e *endpointMetrics) observe(d time.Duration, status int) {
	e.requests.Inc()
	if status >= 400 {
		e.errors.Inc()
	}
	e.latency.Observe(d.Seconds())
}

// Metrics aggregates the worker's counters on an obs.Registry, serving
// two views of the same instruments: the historical JSON snapshot
// (back-compat, byte-identical schema) and the Prometheus text
// exposition. The pipeline stages (queue wait, cache lookup,
// evaluation) each get their own histogram; the front (Tier) adds the
// per-endpoint families, the in-flight gauge and the encode stage.
type Metrics struct {
	reg *obs.Registry

	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	evaluations   *obs.Counter
	shed          *obs.Counter
	chaosInjected *obs.Counter
	chaosSlowed   *obs.Counter

	queueWait   *obs.Histogram
	cacheLookup *obs.Histogram
	evaluate    *obs.Histogram
}

// newMetrics builds the zeroed instrument set, registering the worker
// families plus live gauges over the result cache.
func newMetrics(cache ResultStore) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:           reg,
		cacheHits:     reg.Counter("refocus_cache_hits_total", "Result-cache hits across all requests.", nil),
		cacheMisses:   reg.Counter("refocus_cache_misses_total", "Result-cache misses across all requests.", nil),
		evaluations:   reg.Counter("refocus_evaluations_total", "Design-point evaluations executed on the worker pool (cache misses that did real work).", nil),
		shed:          reg.Counter("refocus_shed_total", "Requests rejected with 429 because the bounded queue ahead of the worker pool was full.", nil),
		chaosInjected: reg.Counter("refocus_chaos_injected_total", "Requests failed on purpose by the opt-in chaos middleware.", nil),
		chaosSlowed:   reg.Counter("refocus_chaos_slowed_total", "Evaluations delayed on purpose by the opt-in chaos middleware.", nil),
		queueWait:     reg.Histogram("refocus_queue_wait_seconds", "Time requests spent waiting for a worker slot.", nil, obs.FineBuckets),
		cacheLookup:   reg.Histogram("refocus_cache_lookup_seconds", "Time spent probing the result cache per request.", nil, obs.FineBuckets),
		evaluate:      reg.Histogram("refocus_evaluate_seconds", "Time spent in design-point evaluation per request that reached the worker pool.", nil, obs.DefBuckets),
	}
	reg.Gauge("refocus_cache_entries", "Result-cache entries currently held in memory.", nil,
		func() float64 { return float64(cache.Len()) })
	reg.Gauge("refocus_cache_capacity", "Result-cache in-memory capacity in entries.", nil,
		func() float64 { return float64(cache.Cap()) })
	if dh, ok := cache.(diskHitCounter); ok {
		reg.Gauge("refocus_cache_disk_hits_total", "Result-cache hits served from the shared on-disk tier (results another shard or a previous incarnation computed).", nil,
			func() float64 { return float64(dh.DiskHits()) })
	}
	return m
}

// endpoint returns (creating on first use) the instruments for one route.
func (t *Tier) endpoint(label string) *endpointMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	em, ok := t.endpoints[label]
	if !ok {
		labels := obs.Labels{"endpoint": label}
		reg := t.tc.Metrics
		em = &endpointMetrics{
			requests: reg.Counter("refocus_requests_total", "Completed requests by endpoint.", labels),
			errors:   reg.Counter("refocus_request_errors_total", "Completed requests answered with a 4xx/5xx status, by endpoint.", labels),
			latency:  reg.Histogram("refocus_request_seconds", "Request handler latency by endpoint.", labels, obs.DefBuckets),
		}
		t.endpoints[label] = em
	}
	return em
}

// endpointStats reads every route's counters. The route map is copied
// under the lock (pointers only — the instruments themselves are
// atomic), and every value is read outside it, so a slow or stalled
// client can never hold up the handlers.
func (t *Tier) endpointStats() map[string]EndpointStats {
	t.mu.Lock()
	routes := make(map[string]*endpointMetrics, len(t.endpoints))
	for label, em := range t.endpoints {
		routes[label] = em
	}
	t.mu.Unlock()
	out := make(map[string]EndpointStats, len(routes))
	for label, em := range routes {
		st := EndpointStats{
			Requests: em.requests.Value(),
			Errors:   em.errors.Value(),
			Latency:  make(map[string]int64, len(latencyBuckets)+1),
		}
		if st.Requests > 0 {
			st.MeanLatencyMillis = em.latency.Sum() / float64(st.Requests) * 1e3
		}
		counts := em.latency.BucketCounts()
		for i, b := range latencyBuckets {
			st.Latency[b.label] = counts[i]
		}
		st.Latency[overflowLabel] = counts[len(counts)-1]
		out[label] = st
	}
	return out
}

// EndpointStats is the externally visible form of one route's counters.
type EndpointStats struct {
	// Requests counts completed requests; Errors the subset with a
	// 4xx/5xx status.
	Requests int64
	Errors   int64
	// MeanLatencyMillis is total handler time divided by Requests.
	MeanLatencyMillis float64
	// Latency is the request-count histogram over decade buckets
	// ("<1ms" … ">=10s").
	Latency map[string]int64
}

// CacheStats is the externally visible form of the result cache state.
type CacheStats struct {
	Hits, Misses      int64
	Entries, Capacity int
	// DiskHits is the subset of Hits served from a shared on-disk store
	// tier — results this process never computed, found because another
	// shard (or a previous incarnation) persisted them. Always 0 for the
	// default in-memory-only cache.
	DiskHits int64
}

// RobustnessStats is the externally visible form of the robustness
// campaign engine's counters.
type RobustnessStats struct {
	// Campaigns counts campaigns started on this process; Active the
	// ones currently running.
	Campaigns int64
	Active    int64
	// Trials counts Monte Carlo trials executed here; TrialsResumed the
	// ones recovered from checkpoints instead of recomputed — the
	// observable proof that a restarted campaign did not redo its work.
	Trials        int64
	TrialsResumed int64
}

// OptimizeStats is the externally visible form of the design-space
// search engine's counters.
type OptimizeStats struct {
	// Searches counts searches started on this process; Active the
	// ones currently running.
	Searches int64
	Active   int64
	// Points counts candidate design points evaluated here;
	// PointsResumed the ones recovered from checkpoints instead of
	// recomputed — the observable proof that a restarted search did not
	// redo its work.
	Points        int64
	PointsResumed int64
}

// Snapshot is the /metrics JSON payload: a consistent-enough
// point-in-time copy of every counter (individual counters are atomic;
// the set is not read under one lock, which is fine for monitoring).
// Its schema predates the Prometheus exposition and is frozen —
// dashboards and the CI e2e job parse it.
type Snapshot struct {
	// InFlight is the number of requests currently inside a handler.
	InFlight int64
	// Evaluations counts design-point evaluations executed on the worker
	// pool (cache misses that did real work).
	Evaluations int64
	// Shed counts requests rejected with 429 because the bounded queue
	// ahead of the worker pool was full (load shedding, never a hang).
	Shed int64
	// ChaosInjected counts requests failed on purpose by the opt-in
	// chaos middleware, and ChaosSlowed the evaluations it delayed
	// (both always 0 unless chaos is configured).
	ChaosInjected int64
	ChaosSlowed   int64
	// Robustness aggregates the campaign engine's counters.
	Robustness RobustnessStats
	// Optimize aggregates the design-space search engine's counters.
	Optimize  OptimizeStats
	Cache     CacheStats
	Endpoints map[string]EndpointStats
}

// snapshot assembles the worker's own part of the JSON payload; the
// Server adds the front's and the jobs' parts.
func (m *Metrics) snapshot(cache ResultStore) Snapshot {
	s := Snapshot{
		Evaluations:   m.evaluations.Value(),
		Shed:          m.shed.Value(),
		ChaosInjected: m.chaosInjected.Value(),
		ChaosSlowed:   m.chaosSlowed.Value(),
		Cache: CacheStats{
			Hits:     m.cacheHits.Value(),
			Misses:   m.cacheMisses.Value(),
			Entries:  cache.Len(),
			Capacity: cache.Cap(),
		},
	}
	if dh, ok := cache.(diskHitCounter); ok {
		s.Cache.DiskHits = dh.DiskHits()
	}
	return s
}
