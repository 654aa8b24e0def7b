package cluster

import (
	"refocus/internal/obs"
	"refocus/internal/serve"
)

// Metrics aggregates the coordinator's counters on an obs.Registry,
// serving the same two views the worker tier does: a JSON snapshot for
// dashboards and the CI gates, and the Prometheus text exposition for
// scrapers. Per-shard routing counters ride the "shard" label; the
// front (serve.Tier) adds the request families, the in-flight gauge and
// the stream-line counter.
type Metrics struct {
	reg *obs.Registry

	// perShard has one row per ring member, fixed at New.
	perShard  map[string]*shardMetrics
	points    *obs.Counter
	pointErrs *obs.Counter
}

// shardMetrics is one shard's routing counters.
type shardMetrics struct {
	routed    *obs.Counter
	hedges    *obs.Counter
	failovers *obs.Counter
}

// newClusterMetrics builds the instrument set with one labeled family
// row per known shard, so the Prometheus view shows zero rows for idle
// shards instead of omitting them.
func newClusterMetrics(shards []string) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:       reg,
		perShard:  make(map[string]*shardMetrics, len(shards)),
		points:    reg.Counter("refocus_cluster_points_total", "Evaluate requests dispatched by the coordinator (sweep points and single evaluates).", nil),
		pointErrs: reg.Counter("refocus_cluster_point_errors_total", "Dispatched points that failed on every ring successor (client-visible losses).", nil),
	}
	for _, s := range shards {
		labels := obs.Labels{"shard": s}
		m.perShard[s] = &shardMetrics{
			routed:    reg.Counter("refocus_cluster_routed_total", "Points whose ring placement chose this shard as primary.", labels),
			hedges:    reg.Counter("refocus_cluster_hedges_total", "Hedged dispatches launched past this primary shard (slow or failed first attempt).", labels),
			failovers: reg.Counter("refocus_cluster_failovers_total", "Points won by a ring successor after this primary shard failed or stalled.", labels),
		}
	}
	return m
}

// ShardStats is one shard's externally visible routing counters.
type ShardStats struct {
	// Routed counts points placed on this shard as primary; Hedges the
	// dispatches that launched a second attempt past it; Failovers the
	// points a ring successor won after this primary failed or stalled.
	Routed    int64
	Hedges    int64
	Failovers int64
}

// Snapshot is the coordinator's /metrics JSON payload.
type Snapshot struct {
	// InFlight is the number of requests currently inside a handler.
	InFlight int64
	// Points counts dispatched evaluate requests; PointErrors the subset
	// that failed on every ring successor — the client-visible losses the
	// kill-a-shard CI gate asserts stay zero.
	Points      int64
	PointErrors int64
	// Failovers and Hedges sum the per-shard counters.
	Failovers int64
	Hedges    int64
	// StreamLines counts results delivered over the NDJSON lane.
	StreamLines int64
	// Robustness aggregates the coordinator-run campaign engine's
	// counters (same shape as the worker tier's).
	Robustness serve.RobustnessStats
	// Optimize aggregates the coordinator-run design-space search
	// engine's counters (same shape as the worker tier's).
	Optimize serve.OptimizeStats
	// Shards maps shard base URL to its routing counters.
	Shards map[string]ShardStats
}

// snapshot assembles the routing part of the JSON payload; the
// Coordinator adds the front's and the jobs' parts.
func (m *Metrics) snapshot() Snapshot {
	s := Snapshot{
		Points:      m.points.Value(),
		PointErrors: m.pointErrs.Value(),
		Shards:      make(map[string]ShardStats),
	}
	for name, sm := range m.perShard {
		st := ShardStats{
			Routed:    sm.routed.Value(),
			Hedges:    sm.hedges.Value(),
			Failovers: sm.failovers.Value(),
		}
		s.Failovers += st.Failovers
		s.Hedges += st.Hedges
		s.Shards[name] = st
	}
	return s
}
