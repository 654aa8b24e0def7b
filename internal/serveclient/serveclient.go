// Package serveclient is the well-behaved client for refocus-serve: it
// retries transient failures (network errors, 429 shed responses, 5xx)
// with full-jitter exponential backoff, honors Retry-After, and wraps
// everything in a circuit breaker so a dead or drowning server is met
// with fast local failures instead of a retry storm. The load generator
// and the CI chaos job drive the service exclusively through this
// package — if the client cannot hide an injected failure, the
// resilience story is broken.
package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refocus/internal/serve"
)

// ErrCircuitOpen is returned (wrapped) when the circuit breaker rejects
// a call without touching the network: the server failed too many
// consecutive requests and the cooldown has not elapsed.
var ErrCircuitOpen = errors.New("serveclient: circuit open")

// ErrShed matches (through errors.Is) every error that ends in a 429:
// the server shed the request and it stayed shed through the client's
// retries — and, for a hedged call, on at least one target — or the
// circuit is open because the request that opened it was shed. Callers
// holding deferrable work wait and resubmit instead of failing.
var ErrShed = errors.New("serveclient: shed with 429")

// Config tunes the client. Only BaseURL is required; New defaults the
// rest to values suited to a local refocus-serve.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport; nil means a client with a
	// 30-second overall timeout.
	HTTPClient *http.Client
	// MaxRetries bounds re-attempts after the first try (so a request
	// costs at most MaxRetries+1 round trips). Negative means 0.
	// Default 4.
	MaxRetries int
	// BaseBackoff is the first retry's maximum sleep; attempt n draws
	// uniformly from [0, min(BaseBackoff·2ⁿ, MaxBackoff)] (full jitter).
	// Defaults 50ms and 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed seeds the jitter so a run's timing is reproducible.
	Seed int64
	// BreakerThreshold is the consecutive-failure count (of whole
	// requests, after their retries) that opens the circuit. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// letting one probe through (half-open). Default 1s.
	BreakerCooldown time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// StatusError is a non-retryable HTTP failure: the server answered with
// a status the client must not paper over (4xx other than 429, or a 429
// on the single-attempt streaming lane), carrying the
// serve.ErrorResponse message when one was sent.
type StatusError struct {
	// Status is the HTTP status code; Message the server's error text.
	Status  int
	Message string
	// RequestID is the server-assigned X-Request-ID of the failed
	// response ("" when none was sent) — quote it to correlate the
	// failure with the server's logs, spans and metrics.
	RequestID string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("serveclient: server answered %d (request %s): %s", e.Status, e.RequestID, e.Message)
	}
	return fmt.Sprintf("serveclient: server answered %d: %s", e.Status, e.Message)
}

// HTTPStatus is the status the server answered with, which a
// coordinator relaying the error answers with too (serve.StatusOf).
func (e *StatusError) HTTPStatus() int { return e.Status }

// Is reports a 429 as ErrShed.
func (e *StatusError) Is(target error) bool {
	return target == ErrShed && e.Status == http.StatusTooManyRequests
}

// Stats are the client's cumulative counters — the observable record of
// how much resilience machinery a run actually exercised.
type Stats struct {
	// Requests counts calls that reached the network path (breaker
	// rejects excluded); Retries the extra attempts beyond each call's
	// first.
	Requests int64
	Retries  int64
	// Shed counts 429 responses received (the server load-shedding).
	Shed int64
	// BreakerOpens counts closed→open transitions; BreakerRejects the
	// calls failed fast while open.
	BreakerOpens   int64
	BreakerRejects int64
}

// breaker is a consecutive-failure circuit breaker: closed until
// threshold failures in a row, then open for cooldown, then half-open
// letting a single probe decide.
type breaker struct {
	mu        sync.Mutex
	failures  int
	openUntil time.Time
	probing   bool
	// shed reports that the last failure was a shed (ErrShed), which a
	// rejection while open passes on.
	shed bool
}

// Client talks to one refocus-serve instance. Create with New; it is
// safe for concurrent use.
type Client struct {
	cfg  Config
	base string

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	brk breaker

	requests, retries, shed  atomic.Int64
	breakerOpens, brkRejects atomic.Int64
}

// New builds a Client; the only validation is a non-empty BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("serveclient: Config.BaseURL is required")
	}
	cfg = cfg.withDefaults()
	return &Client{
		cfg:  cfg,
		base: strings.TrimRight(cfg.BaseURL, "/"),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Stats snapshots the cumulative counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:       c.requests.Load(),
		Retries:        c.retries.Load(),
		Shed:           c.shed.Load(),
		BreakerOpens:   c.breakerOpens.Load(),
		BreakerRejects: c.brkRejects.Load(),
	}
}

// Evaluate calls POST /v1/evaluate.
func (c *Client) Evaluate(ctx context.Context, req serve.EvaluateRequest) (serve.EvaluateResponse, error) {
	var resp serve.EvaluateResponse
	err := c.call(ctx, http.MethodPost, "/v1/evaluate", req, &resp)
	return resp, err
}

// Sweep calls POST /v1/sweep.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	var resp serve.SweepResponse
	err := c.call(ctx, http.MethodPost, "/v1/sweep", req, &resp)
	return resp, err
}

// Networks calls GET /v1/networks: the server's workload registry with
// canonical network hashes and layer-kind summaries.
func (c *Client) Networks(ctx context.Context) (serve.NetworksResponse, error) {
	var resp serve.NetworksResponse
	err := c.call(ctx, http.MethodGet, "/v1/networks", nil, &resp)
	return resp, err
}

// Metrics calls GET /metrics.
func (c *Client) Metrics(ctx context.Context) (serve.Snapshot, error) {
	var resp serve.Snapshot
	err := c.call(ctx, http.MethodGet, "/metrics", nil, &resp)
	return resp, err
}

// StartJob calls POST path — /v1/robustness or /v1/optimize — to
// start a job for spec (or attach to / resume the one with the same
// identity) and decodes its status snapshot into status. Jobs run
// server-side; poll JobStatus with the status's ID until it leaves
// "running".
func (c *Client) StartJob(ctx context.Context, path string, spec, status any) error {
	return c.call(ctx, http.MethodPost, path, spec, status)
}

// JobStatus calls GET path/{id} and decodes the job's status into
// status.
func (c *Client) JobStatus(ctx context.Context, path, id string, status any) error {
	return c.call(ctx, http.MethodGet, path+"/"+url.PathEscape(id), nil, status)
}

// call runs one logical request through the breaker and retry loop,
// decoding a 200 into out.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	if err := c.admit(); err != nil {
		return err
	}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			c.settle(err)
			return fmt.Errorf("serveclient: encoding request: %w", err)
		}
	}
	c.requests.Add(1)
	data, err := c.doWithRetries(ctx, method, path, body)
	c.settleOutcome(ctx, err)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("serveclient: decoding response: %w", err)
	}
	return nil
}

// admit consults the breaker before any network work.
func (c *Client) admit() error {
	c.brk.mu.Lock()
	defer c.brk.mu.Unlock()
	if c.brk.openUntil.IsZero() {
		return nil // closed
	}
	if time.Now().Before(c.brk.openUntil) || c.brk.probing {
		c.brkRejects.Add(1)
		err := fmt.Errorf("%w (cooling down after %d consecutive failures)", ErrCircuitOpen, c.brk.failures)
		if c.brk.shed {
			err = fmt.Errorf("%w: last failure %w", err, ErrShed)
		}
		return err
	}
	c.brk.probing = true // half-open: this call is the probe
	return nil
}

// settleOutcome classifies a finished request for the breaker. A failure
// caused by our own context being canceled is neutral — neither success
// nor failure — because it says nothing about the server's health. This
// matters under hedging: when a fast shard wins, the canceled loser must
// not push its (perfectly healthy) shard's breaker toward open.
func (c *Client) settleOutcome(ctx context.Context, err error) {
	if err != nil && ctx.Err() != nil {
		c.settleAbandoned()
		return
	}
	c.settle(err)
}

// settleAbandoned clears a half-open probe without recording an outcome.
func (c *Client) settleAbandoned() {
	c.brk.mu.Lock()
	defer c.brk.mu.Unlock()
	c.brk.probing = false
}

// settle records a whole request's final outcome (nil for success) in
// the breaker.
func (c *Client) settle(err error) {
	c.brk.mu.Lock()
	defer c.brk.mu.Unlock()
	c.brk.probing = false
	c.brk.shed = errors.Is(err, ErrShed)
	if err == nil {
		c.brk.failures = 0
		c.brk.openUntil = time.Time{}
		return
	}
	c.brk.failures++
	if c.brk.failures >= c.cfg.BreakerThreshold {
		if c.brk.openUntil.IsZero() {
			c.breakerOpens.Add(1)
		}
		c.brk.openUntil = time.Now().Add(c.cfg.BreakerCooldown)
	}
}

// doWithRetries is the attempt loop: transient failures (network
// errors, 429, 500/502/503/504) back off and retry; anything else
// returns immediately.
func (c *Client) doWithRetries(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		data, retryAfter, err := c.doOnce(ctx, method, path, body)
		if err == nil {
			return data, nil
		}
		var se *StatusError
		if errors.As(err, &se) {
			return nil, err // permanent: the server said no, believe it
		}
		lastErr = err
		if attempt >= c.cfg.MaxRetries {
			break
		}
		c.retries.Add(1)
		if err := c.sleep(ctx, attempt, retryAfter); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("serveclient: %s %s failed after %d attempts: %w",
		method, path, c.cfg.MaxRetries+1, lastErr)
}

// doOnce runs a single HTTP attempt. The returned retryAfter is the
// server's Retry-After hint (0 when absent).
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, &StatusError{Status: 0, Message: err.Error()}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, &StatusError{Status: 0, Message: ctx.Err().Error()}
		}
		return nil, 0, fmt.Errorf("serveclient: %w", err) // transient network failure
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("serveclient: reading response: %w", err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return data, 0, nil
	}
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	msg := serverMessage(data)
	reqID := resp.Header.Get("X-Request-ID")
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		c.shed.Add(1)
		return nil, retryAfter, fmt.Errorf("%w (request %s): %s", ErrShed, reqID, msg)
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return nil, retryAfter, fmt.Errorf("serveclient: transient %d (request %s): %s", resp.StatusCode, reqID, msg)
	default:
		return nil, 0, &StatusError{Status: resp.StatusCode, Message: msg, RequestID: reqID}
	}
}

// serverMessage extracts the serve.ErrorResponse text, falling back to
// the raw body.
func serverMessage(data []byte) string {
	var er serve.ErrorResponse
	if err := json.Unmarshal(data, &er); err == nil && er.Error != "" {
		return er.Error
	}
	return strings.TrimSpace(string(data))
}

// parseRetryAfter reads a delay-seconds Retry-After value; anything else
// (absent, HTTP-date) is 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleep blocks for the attempt's backoff — full jitter over an
// exponentially growing cap, floored by the server's Retry-After hint —
// or returns early with the context's error. A wait the caller's
// deadline cannot outlive fails immediately: sleeping out the full
// backoff only to time out afterwards wastes the caller's remaining
// budget without ever reaching the server.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.backoff(attempt)
	if retryAfter > d {
		d = retryAfter
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("serveclient: canceled before backoff: %w", err)
	}
	if d <= 0 {
		return nil
	}
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d {
		return fmt.Errorf("serveclient: %v backoff exceeds the caller's deadline: %w", d, context.DeadlineExceeded)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serveclient: canceled during backoff: %w", ctx.Err())
	}
}

// backoff draws attempt n's sleep uniformly from
// [0, min(BaseBackoff·2ⁿ, MaxBackoff)] — "full jitter", which spreads a
// thundering herd of retriers instead of synchronizing them.
func (c *Client) backoff(attempt int) time.Duration {
	cap := c.cfg.BaseBackoff << uint(attempt)
	if cap <= 0 || cap > c.cfg.MaxBackoff {
		cap = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(cap) + 1))
}
