package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// routeKeySink keeps BenchmarkRouteKey's result live.
var routeKeySink string

// benchInlineSpec is shaped like the inline specs of the repository
// benchmark's evaluate workload: four conv layers and a classifier.
const benchInlineSpec = `{"Name":"inline-3","Layers":[
{"Kind":"conv","Name":"conv0","InC":3,"InH":112,"InW":112,"OutC":32,"KH":3,"KW":3,"Stride":2,"Pad":1,"Repeat":1},
{"Kind":"conv","Name":"conv1","InC":32,"InH":56,"InW":56,"OutC":64,"KH":1,"KW":1,"Stride":1,"Pad":0,"Repeat":2},
{"Kind":"conv","Name":"conv2","InC":64,"InH":56,"InW":56,"OutC":128,"KH":5,"KW":5,"Stride":2,"Pad":2,"Repeat":1},
{"Kind":"conv","Name":"conv3","InC":128,"InH":28,"InW":28,"OutC":16,"KH":3,"KW":3,"Stride":1,"Pad":1,"Repeat":2},
{"Kind":"fc","Name":"fc","In":12544,"Out":10,"Tokens":1,"Repeat":1}]}`

// benchEvaluate posts body to s's evaluate handler and fails b unless
// it answers 200.
func benchEvaluate(b *testing.B, s *Server, body string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkEvaluateCachedHit times one cached POST /v1/evaluate through
// the worker's handler, from body decode to encoded reports: ResNet-50
// (one cache key), "all" (five) and an inline spec (parsed and hashed on
// every request). Every request resolves, keys and hits; none evaluates.
func BenchmarkEvaluateCachedHit(b *testing.B) {
	for _, bc := range []struct{ name, body string }{
		{"ResNet50", `{"Preset": "fb", "Network": "ResNet-50"}`},
		{"All", `{"Preset": "fb", "Network": "all"}`},
		{"Inline", `{"Preset": "fb", "NetworkSpec": ` + benchInlineSpec + `}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Config{})
			defer s.Close()
			benchEvaluate(b, s, bc.body) // fill the cache
			warm := s.MetricsSnapshot().Evaluations
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchEvaluate(b, s, bc.body)
			}
			if n := s.MetricsSnapshot().Evaluations - warm; n != 0 {
				b.Fatalf("%d evaluations in the timed loop, want 0", n)
			}
		})
	}
}

// BenchmarkEvaluateMiss times one uncached POST /v1/evaluate of
// ResNet-50: two design points alternate through a one-entry cache, so
// every request resolves, misses, evaluates, stores and encodes.
func BenchmarkEvaluateMiss(b *testing.B) {
	s := New(Config{CacheSize: 1})
	defer s.Close()
	bodies := []string{
		`{"Preset": "fb", "Network": "ResNet-50", "Overrides": {"Batch": 2}}`,
		`{"Preset": "fb", "Network": "ResNet-50", "Overrides": {"Batch": 3}}`,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEvaluate(b, s, bodies[i%2])
	}
	if n := s.MetricsSnapshot().Evaluations; n != int64(b.N) {
		b.Fatalf("%d evaluations for %d requests", n, b.N)
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
