// Hedged requests and the NDJSON sweep consumer — the client half of the
// cluster tier. A coordinator holds one Client per worker shard and calls
// EvaluateHedged with the ring's preference order; SweepStream is how
// end clients (the load generator, the CI gates) consume a sweep's
// results as they complete instead of waiting for the full batch.

package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"refocus/internal/serve"
)

// SweepStream calls POST /v1/sweep on the NDJSON lane, invoking fn for
// each line as the server flushes it — lines arrive in completion order;
// use Line.Index to map back to input order. The call is a single
// attempt: a stream that dies mid-flight is not transparently retried,
// because the caller has already observed a prefix of the results and a
// blind retry would replay them. Callers that need at-least-once
// delivery retry at their own layer with the indices they still miss. A
// non-nil error from fn abandons the stream and is returned verbatim.
// The breaker sees the stream like any other call; death by the caller's
// own context is neutral.
func (c *Client) SweepStream(ctx context.Context, req serve.SweepRequest, fn func(serve.SweepStreamLine) error) error {
	if err := c.admit(); err != nil {
		return err
	}
	body, err := json.Marshal(req)
	if err != nil {
		c.settle(err)
		return fmt.Errorf("serveclient: encoding request: %w", err)
	}
	c.requests.Add(1)
	err = c.sweepStreamOnce(ctx, body, fn)
	c.settleOutcome(ctx, err)
	return err
}

// sweepStreamOnce runs the single streaming attempt.
func (c *Client) sweepStreamOnce(ctx context.Context, body []byte, fn func(serve.SweepStreamLine) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return &StatusError{Status: 0, Message: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", serve.NDJSONContentType)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("serveclient: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests {
			c.shed.Add(1)
		}
		return &StatusError{
			Status:    resp.StatusCode,
			Message:   serverMessage(data),
			RequestID: resp.Header.Get("X-Request-ID"),
		}
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var line serve.SweepStreamLine
		if err := dec.Decode(&line); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return fmt.Errorf("serveclient: decoding stream: %w", err)
		}
		if err := fn(line); err != nil {
			return err
		}
	}
}

// HedgeResult reports how a hedged call was won.
type HedgeResult struct {
	// Resp is the winning response.
	Resp serve.EvaluateResponse
	// Target is the winner's index in the targets slice.
	Target int
	// Attempts counts clients actually tried (1 when the primary answered
	// before the hedge fired).
	Attempts int
	// Hedged reports whether more than one attempt was launched —
	// distinguishing latency hedges and failovers from the clean path.
	Hedged bool
}

// EvaluateHedged runs one evaluate request against an ordered list of
// equivalent targets — in cluster terms, a shard and its ring successors.
// targets[0] is tried immediately; the next target is launched as soon as
// an earlier attempt fails (failover) or the hedge delay elapses with no
// answer (tail-latency hedge). delay <= 0 disables the timer, giving pure
// sequential failover. The first success cancels every other attempt and
// wins; canceled losers settle their breakers neutrally (see
// settleOutcome), so hedging never poisons a healthy shard's breaker.
// All targets failing returns the joined per-target errors.
func EvaluateHedged(ctx context.Context, targets []*Client, delay time.Duration, req serve.EvaluateRequest) (HedgeResult, error) {
	if len(targets) == 0 {
		return HedgeResult{}, errors.New("serveclient: hedged call needs at least one target")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reap losers on win, everything on return

	type outcome struct {
		idx  int
		resp serve.EvaluateResponse
		err  error
	}
	results := make(chan outcome, len(targets))
	launched := 0
	launch := func() {
		idx := launched
		launched++
		go func() {
			resp, err := targets[idx].Evaluate(ctx, req)
			results <- outcome{idx: idx, resp: resp, err: err}
		}()
	}
	launch()

	var timerC <-chan time.Time
	if delay > 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		timerC = timer.C
	}
	pending := 1
	errs := make([]error, 0, len(targets))
	for {
		select {
		case <-ctx.Done():
			return HedgeResult{Attempts: launched, Hedged: launched > 1},
				fmt.Errorf("serveclient: hedged call canceled: %w", ctx.Err())
		case <-timerC:
			timerC = nil
			if launched < len(targets) {
				launch()
				pending++
			}
		case out := <-results:
			pending--
			if out.err == nil {
				return HedgeResult{Resp: out.resp, Target: out.idx, Attempts: launched, Hedged: launched > 1}, nil
			}
			errs = append(errs, fmt.Errorf("target %d: %w", out.idx, out.err))
			if launched < len(targets) {
				launch()
				pending++
			} else if pending == 0 {
				return HedgeResult{Attempts: launched, Hedged: launched > 1},
					fmt.Errorf("serveclient: all %d hedged targets failed: %w", launched, errors.Join(errs...))
			}
		}
	}
}
