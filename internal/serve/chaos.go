package serve

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ChaosConfig is the opt-in fault-injection middleware configuration for
// resilience testing. With probability FailProb an evaluation request is
// failed on purpose with 503 + Retry-After before any work happens, and
// with probability SlowProb an evaluation holds its worker slot for an
// extra SlowDelay — the standard two chaos levers (errors and latency),
// the second of which lets a test genuinely saturate the pool and
// observe load shedding. The zero value disables both — chaos is never
// on by default.
type ChaosConfig struct {
	// FailProb is the per-request injection probability in [0, 1].
	// Values <= 0 disable failure injection; values > 1 are clamped.
	FailProb float64
	// SlowProb is the per-evaluation probability of holding the worker
	// slot for SlowDelay (both must be positive to inject latency).
	SlowProb float64
	// SlowDelay is the injected slot-hold time per slowed evaluation.
	SlowDelay time.Duration
	// Seed seeds the injection sequence so a chaos run draws the same
	// coin flips every time.
	Seed int64
}

// enabled reports whether any injection lever is armed.
func (c ChaosConfig) enabled() bool {
	return c.FailProb > 0 || (c.SlowProb > 0 && c.SlowDelay > 0)
}

// chaosHeader marks injected failures so tests and clients can tell a
// deliberate 503 from a real one.
const chaosHeader = "X-Refocus-Chaos"

// chaosInjector is the runtime state behind ChaosConfig: seeded,
// mutex-guarded coins. A nil injector (chaos disabled) never injects.
type chaosInjector struct {
	failProb  float64
	slowProb  float64
	slowDelay time.Duration
	mu        sync.Mutex
	rng       *rand.Rand
}

// clampProb limits a probability to [0, 1].
func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// newChaosInjector returns nil when cfg disables chaos.
func newChaosInjector(cfg ChaosConfig) *chaosInjector {
	if !cfg.enabled() {
		return nil
	}
	inj := &chaosInjector{
		failProb: clampProb(cfg.FailProb),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.SlowDelay > 0 {
		inj.slowProb = clampProb(cfg.SlowProb)
		inj.slowDelay = cfg.SlowDelay
	}
	return inj
}

// flip draws one seeded coin at probability p.
func (c *chaosInjector) flip(p float64) bool {
	if c == nil || p <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < p
}

// shouldFail decides whether to fail the current request.
func (c *chaosInjector) shouldFail() bool { return c.flip(c.probFail()) }

// probFail reads failProb through the nil guard.
func (c *chaosInjector) probFail() float64 {
	if c == nil {
		return 0
	}
	return c.failProb
}

// maybeSlow injects the configured latency while the caller holds a
// worker slot, respecting the request context. It reports whether a
// delay was injected (for the metrics counter).
func (c *chaosInjector) maybeSlow(ctx context.Context) bool {
	if c == nil || c.slowProb <= 0 || !c.flip(c.slowProb) {
		return false
	}
	t := time.NewTimer(c.slowDelay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	return true
}

// withChaos wraps an evaluation handler with the failure-injection coin.
// It sits inside instrument, so injected failures show up in the
// endpoint's error counters like any other 5xx — chaos runs measure the
// service as clients would see it, not a sanitized view.
func (s *Server) withChaos(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.chaos.shouldFail() {
			s.metrics.chaosInjected.Add(1)
			w.Header().Set(chaosHeader, "injected")
			s.writeError(w, &apiError{
				status:     http.StatusServiceUnavailable,
				retryAfter: 1,
				err:        errors.New("serve: chaos-injected failure (configured, not real)"),
			})
			return
		}
		h(w, r)
	}
}
