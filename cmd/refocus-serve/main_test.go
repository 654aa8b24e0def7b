package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"refocus/internal/serve"
)

// syncWriter guards a strings.Builder so the test can read the log while
// the server goroutine is still writing it.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{"extra-arg"}, io.Discard); err == nil {
		t.Error("positional argument accepted")
	}
	if err := run(ctx, []string{"-addr", "256.0.0.1:bogus"}, io.Discard); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// TestRunServesUntilCanceled boots each role on an ephemeral port, waits
// for the banner, drives one request through it, and cancels: run must
// return nil. The coordinator runs over a real worker and writes its
// dispatch spans to -trace-file on the way out.
func TestRunServesUntilCanceled(t *testing.T) {
	worker := serve.New(serve.Config{})
	t.Cleanup(worker.Close)
	shard := httptest.NewServer(worker.Handler())
	t.Cleanup(shard.Close)
	traceFile := filepath.Join(t.TempDir(), "trace.json")

	cases := []struct {
		name  string
		args  []string
		after func(t *testing.T) // runs once run has returned
	}{
		{name: "worker", args: []string{"-workers", "2", "-cache-size", "16"}},
		{
			name: "coordinator",
			args: []string{"-role", "coordinator", "-shards", shard.URL, "-trace-file", traceFile, "-log-level", "off"},
			after: func(t *testing.T) {
				data, err := os.ReadFile(traceFile)
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []struct {
						Name string `json:"name"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tr); err != nil {
					t.Fatalf("trace file is not a Chrome trace: %v", err)
				}
				for _, ev := range tr.TraceEvents {
					if ev.Name == "cluster.dispatch" {
						return
					}
				}
				t.Errorf("trace file holds no cluster.dispatch event:\n%s", data)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out := &syncWriter{}
			errc := make(chan error, 1)
			go func() {
				errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), out)
			}()

			var base string
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) && base == "" {
				if s := out.String(); strings.Contains(s, "listening on ") {
					line := s[strings.Index(s, "http://"):]
					base = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
				}
				time.Sleep(5 * time.Millisecond)
			}
			if base == "" {
				t.Fatalf("server never started: %q", out.String())
			}
			resp, err := http.Post(base+"/v1/evaluate", "application/json",
				strings.NewReader(`{"Preset": "fb", "Network": "ResNet-18"}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("evaluate answered %d: %s", resp.StatusCode, body)
			}

			cancel()
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("run returned %v on graceful shutdown", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return after cancel")
			}
			if tc.after != nil {
				tc.after(t)
			}
		})
	}
}
