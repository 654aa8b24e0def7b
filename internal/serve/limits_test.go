package serve

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
)

// tinySpec is a minimal valid inline network: three small fc layers
// (~49k MACs total — far under every default limit).
const tinySpec = `{"Name": "tiny", "Layers": [
	{"Kind": "fc", "Name": "f", "In": 128, "Out": 128, "Tokens": 1, "Repeat": 3}
]}`

// TestSpecLimitsRejectWith422: an inline spec past a configured limit gets
// a structured 422 naming the limit; the same spec under the limit passes.
func TestSpecLimitsRejectWith422(t *testing.T) {
	_, url := testServer(t, Config{Limits: SpecLimits{MaxLayers: 2}})
	status, body := post(t, url+"/v1/evaluate",
		`{"Preset": "fb", "NetworkSpec": `+tinySpec+`}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("over-limit spec: status %d, want 422\n%s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("422 body is not the structured error payload: %v\n%s", err, body)
	}
	if er.Status != http.StatusUnprocessableEntity ||
		!strings.Contains(er.Error, "exceeds resource limits") ||
		!strings.Contains(er.Error, "3 layer instances > max 2") {
		t.Errorf("unexpected error payload: %+v", er)
	}

	// The defaults sit far above the tiny spec: it must evaluate cleanly.
	_, urlOK := testServer(t, Config{})
	if status, body := post(t, urlOK+"/v1/evaluate",
		`{"Preset": "fb", "NetworkSpec": `+tinySpec+`}`); status != http.StatusOK {
		t.Errorf("tiny spec under default limits: status %d\n%s", status, body)
	}
}

// TestSpecLimitsGMACs: the MAC budget is enforced independently of the
// layer count.
func TestSpecLimitsGMACs(t *testing.T) {
	_, url := testServer(t, Config{Limits: SpecLimits{MaxGMACs: 1e-9}})
	status, body := post(t, url+"/v1/evaluate",
		`{"Preset": "fb", "NetworkSpec": `+tinySpec+`}`)
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "GMACs") {
		t.Errorf("over-budget spec: status %d\n%s", status, body)
	}
}

// TestSpecLimitsSweepAndRegistryExempt: the limit also guards sweep
// points, and registry networks bypass it — they shipped with the binary.
func TestSpecLimitsSweepAndRegistryExempt(t *testing.T) {
	_, url := testServer(t, Config{Limits: SpecLimits{MaxLayers: 1}})
	status, body := post(t, url+"/v1/sweep",
		`{"Points": [{"Preset": "fb", "NetworkSpec": `+tinySpec+`}]}`)
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 || !strings.Contains(sr.Points[0].Error, "exceeds resource limits") {
		t.Errorf("sweep point did not surface the limit error: %+v", sr.Points)
	}
	// ResNet-18 has far more than 1 layer, but registry names are trusted.
	if status, body := post(t, url+"/v1/evaluate",
		`{"Preset": "fb", "Network": "ResNet-18"}`); status != http.StatusOK {
		t.Errorf("registry network hit the inline-spec limit: %d %s", status, body)
	}
}

// routeKey computes RouteKey with default limits, failing the test on error.
func routeKey(t *testing.T, req EvaluateRequest) string {
	t.Helper()
	key, err := RouteKey(req, SpecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRouteKeyInvariance: requests resolving to the same design point and
// workloads share a key however they were spelled — alias vs canonical
// preset, case-insensitive network names, inline spec vs the identical
// registry entry.
func TestRouteKeyInvariance(t *testing.T) {
	base := routeKey(t, EvaluateRequest{Preset: "fb", Network: "ResNet-18"})
	if base == "" {
		t.Fatal("empty route key")
	}
	if k := routeKey(t, EvaluateRequest{Preset: "refocus", Network: "resnet-18"}); k != base {
		t.Errorf("alias spelling changed the key:\n%s\n%s", base, k)
	}
	spec, err := json.Marshal(nn.ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	if k := routeKey(t, EvaluateRequest{Preset: "fb", NetworkSpec: spec}); k != base {
		t.Errorf("inline spec of the registry network changed the key:\n%s\n%s", base, k)
	}
	// Different design point, workload set, or fault set → different keys.
	if k := routeKey(t, EvaluateRequest{Preset: "ff", Network: "ResNet-18"}); k == base {
		t.Error("different preset shares the key")
	}
	if k := routeKey(t, EvaluateRequest{Preset: "fb", Network: "FNet-base"}); k == base {
		t.Error("different network shares the key")
	}
	faulty := EvaluateRequest{Preset: "fb", Network: "ResNet-18",
		Faults: json.RawMessage(`{"DeadRFCUs": [0]}`)}
	if k := routeKey(t, faulty); k == base {
		t.Error("fault set shares the healthy key")
	}
	// "all" is the default and both spellings agree.
	if routeKey(t, EvaluateRequest{Preset: "fb"}) != routeKey(t, EvaluateRequest{Preset: "fb", Network: "all"}) {
		t.Error("empty Network and \"all\" disagree")
	}
}

// TestRouteKeyErrorsKeepStatusTags: validation failures from RouteKey
// carry the same status classification the evaluate handler uses, so a
// coordinator can answer without a shard round trip.
func TestRouteKeyErrorsKeepStatusTags(t *testing.T) {
	_, err := RouteKey(EvaluateRequest{Preset: "no-such"}, SpecLimits{})
	if err == nil || StatusOf(err) != http.StatusBadRequest {
		t.Errorf("bad preset: status %d, err %v", StatusOf(err), err)
	}
	_, err = RouteKey(EvaluateRequest{Preset: "fb",
		NetworkSpec: json.RawMessage(tinySpec)}, SpecLimits{MaxLayers: 1})
	if err == nil || StatusOf(err) != http.StatusUnprocessableEntity {
		t.Errorf("over-limit spec: status %d, err %v", StatusOf(err), err)
	}
}

// keyLog is a ResultStore that records every key the worker looks up.
type keyLog struct {
	ResultStore
	mu   sync.Mutex
	keys []string
}

func (k *keyLog) Get(key string) (arch.Report, bool) {
	k.mu.Lock()
	k.keys = append(k.keys, key)
	k.mu.Unlock()
	return k.ResultStore.Get(key)
}

// TestRouteKeyIsWorkerCacheIdentity: for a registry network, "all", a
// faulted request and an inline spec byte-identical to a registry entry,
// the worker looks its cache up under configHash[|faultHash]|netHash for
// each network, with the response's ConfigHash, the fault set's own hash
// and each network's fresh NetworkHash, and RouteKey of the same request
// is those keys' prefix joined with every network hash.
func TestRouteKeyIsWorkerCacheIdentity(t *testing.T) {
	spec, err := nn.NetworkJSON(nn.ResNet50())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  EvaluateRequest
	}{
		{"registry", EvaluateRequest{Preset: "fb", Network: "resnet-50"}},
		{"all", EvaluateRequest{Preset: "ff", Network: "all"}},
		{"faulted", EvaluateRequest{Preset: "fb", Network: "BERT-base",
			Faults: json.RawMessage(`{"DeadRFCUs": [1], "BufferExcessLossDB": 0.2}`)}},
		{"inline", EvaluateRequest{Preset: "fb", NetworkSpec: spec}},
	}
	for _, tc := range cases {
		log := &keyLog{ResultStore: newReportCache(64)}
		_, url := testServer(t, Config{Store: log})
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		status, data := post(t, url+"/v1/evaluate", string(body))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", tc.name, status, data)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		prefix := resp.ConfigHash
		if tc.req.Faults != nil {
			fs, err := faults.Parse(tc.req.Faults)
			if err != nil {
				t.Fatal(err)
			}
			fsHash, err := fs.Hash()
			if err != nil {
				t.Fatal(err)
			}
			prefix += "|" + fsHash
		}
		var want []string
		for i, name := range resp.Networks {
			net, ok := nn.ByName(name)
			if !ok {
				t.Fatalf("%s: response names unknown network %q", tc.name, name)
			}
			if h := nn.MustNetworkHash(net); resp.NetworkHashes[i] != h {
				t.Errorf("%s: NetworkHashes[%d] = %s, want %s", tc.name, i, resp.NetworkHashes[i], h)
			}
			want = append(want, prefix+"|"+resp.NetworkHashes[i])
		}
		log.mu.Lock()
		got := slices.Clone(log.keys)
		log.mu.Unlock()
		if !slices.Equal(got, want) {
			t.Errorf("%s: worker cache keys\n%q\nwant\n%q", tc.name, got, want)
		}
		if rk := routeKey(t, tc.req); rk != prefix+"|"+strings.Join(resp.NetworkHashes, "|") {
			t.Errorf("%s: RouteKey %s is not the cache keys' identity %s|%s", tc.name, rk, prefix, strings.Join(resp.NetworkHashes, "|"))
		}
	}
	if routeKey(t, cases[0].req) != routeKey(t, cases[3].req) {
		t.Error("inline spec of ResNet-50 and the registry name route apart")
	}
}
