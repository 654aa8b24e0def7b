package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// routeKeySink keeps BenchmarkRouteKey's result live.
var routeKeySink string

// BenchmarkEvaluateCachedHit times one cached POST /v1/evaluate through
// the worker's handler, from body decode to encoded reports: ResNet-50
// (one cache key) and "all" (five). Every request resolves, keys and
// hits; none evaluates.
func BenchmarkEvaluateCachedHit(b *testing.B) {
	for _, bc := range []struct{ name, network string }{{"ResNet50", "ResNet-50"}, {"All", "all"}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Config{})
			defer s.Close()
			body := `{"Preset": "fb", "Network": "` + bc.network + `"}`
			evaluate := func() {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			evaluate() // fill the cache
			warm := s.MetricsSnapshot().Evaluations
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evaluate()
			}
			if n := s.MetricsSnapshot().Evaluations - warm; n != 0 {
				b.Fatalf("%d evaluations in the timed loop, want 0", n)
			}
		})
	}
}

// BenchmarkRouteKey times the coordinator's placement key of a ResNet-50
// request: resolution, validation and the key.
func BenchmarkRouteKey(b *testing.B) {
	req := EvaluateRequest{Preset: "fb", Network: "ResNet-50"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key, err := RouteKey(req, SpecLimits{})
		if err != nil {
			b.Fatal(err)
		}
		routeKeySink = key
	}
}
