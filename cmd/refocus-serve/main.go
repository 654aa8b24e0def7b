// Command refocus-serve runs the concurrent evaluation service: an HTTP
// JSON API in front of the internal/sim pipeline with a bounded worker
// pool and an LRU result cache (see internal/serve and DESIGN.md §8). With
// -role coordinator it instead fronts a fleet of worker shards with the
// same API, routing by cache key on a consistent-hash ring (see
// internal/cluster and DESIGN.md §13).
//
// Usage (worker, the default):
//
//	refocus-serve [-addr :8080] [-workers 4] [-cache-size 4096]
//	              [-cache-dir DIR] [-timeout 30s] [-max-body 1048576]
//	              [-queue-depth 64] [-max-spec-layers 512]
//	              [-max-spec-gmacs 2048] [-chaos-fail 0] [-chaos-slow 0]
//	              [-chaos-slow-delay 100ms] [-chaos-seed 0]
//	              [-log-level info] [-pprof-addr host:port]
//
// Usage (coordinator):
//
//	refocus-serve -role coordinator -shards URL,URL,... [-addr :8080]
//	              [-vnodes 128] [-ring-seed 0] [-hedge-delay 250ms]
//	              [-shard-attempts 2] [-shard-concurrency 8]
//	              [-shard-retries 1] [-trace-file PATH]
//	              [-max-spec-layers 512] [-max-spec-gmacs 2048]
//	              [-log-level info] [-pprof-addr host:port]
//
// The process serves until SIGINT/SIGTERM, then drains in-flight
// requests and exits cleanly. -queue-depth bounds the wait line ahead of
// the worker pool: arrivals past it are shed with 429 + Retry-After
// instead of queueing without limit. -cache-dir layers a shared
// content-addressed on-disk result store under the in-memory LRU:
// results survive restarts, and every shard pointed at the same
// directory deduplicates work cluster-wide. It also durably checkpoints
// POST /v1/robustness campaigns (under <cache-dir>/robustness) and
// POST /v1/optimize design-space searches (under <cache-dir>/optimize),
// both roles: a campaign or search interrupted by a crash or SIGKILL
// resumes from its completed work when the same spec is resubmitted to a
// process with the same -cache-dir. -max-spec-layers and
// -max-spec-gmacs bound inline NetworkSpec submissions (registry
// networks are exempt); an over-limit spec is rejected with a structured
// 422. The -chaos-* flags enable the opt-in fault-injection middleware
// (never on by default): -chaos-fail fails each evaluation request with
// a marked 503 at that probability, and -chaos-slow holds the worker
// slot for -chaos-slow-delay at that probability so tests can saturate
// the pool on demand; -chaos-seed makes the injected coin flips
// reproducible.
//
// A coordinator routes each request by its canonical cache key on a
// seeded consistent-hash ring over -shards, so repeats land on the shard
// already holding their results. A slow primary is hedged onto the
// ring's next shard after -hedge-delay; a dead one fails over
// immediately (up to -shard-attempts shards per point), so killing a
// shard mid-sweep loses no results. -trace-file writes the
// coordinator's dispatch spans as Chrome trace_event JSON on shutdown.
//
// Both roles serve one HTTP front (serve.Tier), so the shared routes,
// middleware and metrics families behave alike. Observability: every
// response, on either role, carries an X-Request-ID that also tags the
// structured request log on stderr (-log-level picks the slog threshold;
// "off" silences it); GET /metrics?format=prometheus serves the
// scrape-ready exposition next to the historical JSON; POST
// /v1/evaluate?trace=1 returns a per-request Chrome trace; and
// -pprof-addr exposes net/http/pprof on a separate, opt-in listener.
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/evaluate \
//	     -d '{"Preset": "fb", "Network": "ResNet-50"}'
//	curl -s 'localhost:8080/metrics?format=prometheus'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"refocus/internal/cluster"
	"refocus/internal/obs"
	"refocus/internal/serve"
	"refocus/internal/serveclient"
)

// parseLogLevel maps the -log-level vocabulary to a slog.Leveler; "off"
// (and a nil return) disables request logging.
func parseLogLevel(s string) (slog.Level, bool, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, true, nil
	case "info":
		return slog.LevelInfo, true, nil
	case "warn":
		return slog.LevelWarn, true, nil
	case "error":
		return slog.LevelError, true, nil
	case "off":
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("refocus-serve: unknown -log-level %q (debug|info|warn|error|off)", s)
}

// splitShards parses the -shards list, dropping empty entries.
func splitShards(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("refocus-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	role := fs.String("role", "worker", "process role: worker (evaluate) or coordinator (route across -shards)")
	workers := fs.Int("workers", 4, "max concurrent design-point evaluations")
	cacheSize := fs.Int("cache-size", 4096, "result-cache capacity in (config, network) reports")
	cacheDir := fs.String("cache-dir", "", "shared on-disk result store directory (empty keeps the cache memory-only)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request evaluation timeout, including queue time")
	maxBody := fs.Int64("max-body", 1<<20, "max request body bytes")
	queueDepth := fs.Int("queue-depth", 64, "max requests waiting for a worker before shedding with 429")
	maxSpecLayers := fs.Int("max-spec-layers", serve.DefaultMaxSpecLayers, "max layer instances in an inline NetworkSpec (over-limit specs get 422)")
	maxSpecGMACs := fs.Float64("max-spec-gmacs", serve.DefaultMaxSpecGMACs, "max total GMACs in an inline NetworkSpec (over-limit specs get 422)")
	chaosFail := fs.Float64("chaos-fail", 0, "chaos middleware failure-injection probability (0 disables; testing only)")
	chaosSlow := fs.Float64("chaos-slow", 0, "chaos middleware latency-injection probability (0 disables; testing only)")
	chaosSlowDelay := fs.Duration("chaos-slow-delay", 100*time.Millisecond, "injected worker-slot hold per slowed evaluation")
	chaosSeed := fs.Int64("chaos-seed", 0, "seed for the chaos injection sequence")
	shards := fs.String("shards", "", "comma-separated worker base URLs (coordinator role)")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "consistent-hash virtual nodes per shard (coordinator role)")
	ringSeed := fs.Uint64("ring-seed", 0, "seed for ring placement; all coordinators over one cluster must agree (coordinator role)")
	hedgeDelay := fs.Duration("hedge-delay", 250*time.Millisecond, "wait before hedging a point onto the next shard; <= 0 disables latency hedging (coordinator role)")
	shardAttempts := fs.Int("shard-attempts", 2, "max ring successors tried per point, primary included (coordinator role)")
	shardConcurrency := fs.Int("shard-concurrency", 8, "max concurrent dispatches per primary shard (coordinator role)")
	shardRetries := fs.Int("shard-retries", 1, "per-shard client retries per attempt (coordinator role)")
	traceFile := fs.String("trace-file", "", "write coordinator dispatch spans as Chrome trace JSON here on shutdown (coordinator role)")
	logLevel := fs.String("log-level", "info", "structured request-log threshold (debug|info|warn|error|off)")
	pprofAddr := fs.String("pprof-addr", "", "optional net/http/pprof listen address (empty disables profiling)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("refocus-serve: unexpected arguments %v", fs.Args())
	}
	level, logOn, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	var logger *slog.Logger
	if logOn {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}
	if *pprofAddr != "" {
		got, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("refocus-serve: pprof listener: %w", err)
		}
		fmt.Fprintf(out, "pprof listening on %s\n", got)
	}
	limits := serve.SpecLimits{MaxLayers: *maxSpecLayers, MaxGMACs: *maxSpecGMACs}

	// Both roles mount the same serve.Tier front, so one listen/drain
	// loop serves either.
	var tier interface {
		ListenAndServe(ctx context.Context, addr string, out io.Writer) error
		Close()
	}
	var tr *obs.Trace
	switch *role {
	case "worker":
		cfg := serve.Config{
			Logger:         logger,
			Workers:        *workers,
			CacheSize:      *cacheSize,
			RequestTimeout: *timeout,
			MaxBodyBytes:   *maxBody,
			QueueDepth:     *queueDepth,
			Limits:         limits,
			Chaos: serve.ChaosConfig{
				FailProb:  *chaosFail,
				SlowProb:  *chaosSlow,
				SlowDelay: *chaosSlowDelay,
				Seed:      *chaosSeed,
			},
		}
		if *cacheDir != "" {
			store, err := serve.NewDiskStore(*cacheDir, *cacheSize)
			if err != nil {
				return fmt.Errorf("refocus-serve: %w", err)
			}
			cfg.Store = store
			cfg.CampaignDir = filepath.Join(*cacheDir, "robustness")
			cfg.OptimizeDir = filepath.Join(*cacheDir, "optimize")
		}
		tier = serve.New(cfg)

	case "coordinator":
		shardList := splitShards(*shards)
		if len(shardList) == 0 {
			return fmt.Errorf("refocus-serve: -role coordinator needs -shards URL,URL,...")
		}
		if *traceFile != "" {
			tr = obs.NewTrace()
		}
		retries := *shardRetries
		if retries == 0 {
			retries = -1 // serveclient: negative means "no retries", 0 means default
		}
		cfg := cluster.Config{
			Shards:           shardList,
			VNodes:           *vnodes,
			Seed:             *ringSeed,
			HedgeDelay:       *hedgeDelay,
			Attempts:         *shardAttempts,
			ShardConcurrency: *shardConcurrency,
			SweepTimeout:     *timeout * 4,
			Client:           serveclient.Config{MaxRetries: retries},
			Limits:           limits,
			Logger:           logger,
			Trace:            tr,
		}
		if *cacheDir != "" {
			cfg.CampaignDir = filepath.Join(*cacheDir, "robustness")
			cfg.OptimizeDir = filepath.Join(*cacheDir, "optimize")
		}
		c, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		tier = c

	default:
		return fmt.Errorf("refocus-serve: unknown -role %q (worker|coordinator)", *role)
	}
	serveErr := tier.ListenAndServe(ctx, *addr, out)
	tier.Close()
	if tr != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("refocus-serve: trace file: %w", err)
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("refocus-serve: writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "coordinator trace written to %s\n", *traceFile)
	}
	return serveErr
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "refocus-serve: %v\n", err)
		os.Exit(1)
	}
}
