package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"refocus/internal/nn"
)

func TestNetworksEndpoint(t *testing.T) {
	_, url := testServer(t, Config{})
	status, body := get(t, url+"/v1/networks")
	if status != http.StatusOK {
		t.Fatalf("networks: %d %s", status, body)
	}
	var resp NetworksResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Networks) != len(nn.Names()) {
		t.Fatalf("listed %d networks, registry has %d", len(resp.Networks), len(nn.Names()))
	}
	seen := map[string]string{}
	for _, info := range resp.Networks {
		if info.Hash == "" || info.Layers <= 0 || len(info.Kinds) == 0 {
			t.Errorf("%s: incomplete entry %+v", info.Name, info)
		}
		if prev, dup := seen[info.Hash]; dup {
			t.Errorf("%s and %s share a hash", info.Name, prev)
		}
		seen[info.Hash] = info.Name
		want, ok := nn.ByName(info.Name)
		if !ok {
			t.Errorf("listed unknown network %s", info.Name)
			continue
		}
		if info.Hash != nn.MustNetworkHash(want) {
			t.Errorf("%s: hash drifted from registry", info.Name)
		}
	}
	for _, name := range []string{"BERT-base", "ViT-B/16", "FNet-base"} {
		if _, ok := seen[nn.MustNetworkHash(mustNet(t, name))]; !ok {
			t.Errorf("transformer workload %s missing from /v1/networks", name)
		}
	}
}

func mustNet(t *testing.T, name string) nn.Network {
	t.Helper()
	n, ok := nn.ByName(name)
	if !ok {
		t.Fatalf("unknown network %s", name)
	}
	return n
}

// TestInlineSpecEvaluateAndCacheAlias: an inline NetworkSpec evaluates,
// its repeat is a cache hit, and a by-name request for the identical
// registry network shares the same cache entry (hash-keyed, not
// name-keyed).
func TestInlineSpecEvaluateAndCacheAlias(t *testing.T) {
	_, url := testServer(t, Config{})
	spec, err := nn.NetworkJSON(nn.BERTBase())
	if err != nil {
		t.Fatal(err)
	}
	req := fmt.Sprintf(`{"Preset": "fb", "NetworkSpec": %s}`, spec)

	status, first := post(t, url+"/v1/evaluate", req)
	if status != http.StatusOK {
		t.Fatalf("inline evaluate: %d %s", status, first)
	}
	var r1 EvaluateResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.CacheMisses != 1 || r1.CacheHits != 0 {
		t.Errorf("first request: hits=%d misses=%d, want 0/1", r1.CacheHits, r1.CacheMisses)
	}
	if len(r1.Reports) != 1 || r1.Reports[0].FPS <= 0 {
		t.Fatalf("inline spec produced no throughput: %+v", r1.Reports)
	}
	if len(r1.NetworkHashes) != 1 || r1.NetworkHashes[0] != nn.MustNetworkHash(nn.BERTBase()) {
		t.Errorf("response hash %v != registry hash", r1.NetworkHashes)
	}

	status, second := post(t, url+"/v1/evaluate", req)
	if status != http.StatusOK {
		t.Fatalf("repeat: %d %s", status, second)
	}
	var r2 EvaluateResponse
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.CacheHits != 1 || r2.CacheMisses != 0 {
		t.Errorf("repeat inline spec: hits=%d misses=%d, want 1/0", r2.CacheHits, r2.CacheMisses)
	}

	// Case-insensitive by-name request for the same workload: still a hit.
	status, third := post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "bert-base"}`)
	if status != http.StatusOK {
		t.Fatalf("by-name: %d %s", status, third)
	}
	var r3 EvaluateResponse
	if err := json.Unmarshal(third, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.CacheHits != 1 || r3.CacheMisses != 0 {
		t.Errorf("by-name after inline: hits=%d misses=%d, want 1/0", r3.CacheHits, r3.CacheMisses)
	}
}

func TestNetworkSpecRejections(t *testing.T) {
	_, url := testServer(t, Config{})
	cases := map[string]string{
		"both name and spec": `{"Preset": "fb", "Network": "AlexNet", "NetworkSpec": {"Name":"x","Layers":[{"Kind":"fc","Name":"f","In":1,"Out":1,"Tokens":1,"Repeat":1}]}}`,
		"malformed spec":     `{"Preset": "fb", "NetworkSpec": {"Name":"x","Layers":[{"Kind":"pool","Name":"p"}]}}`,
		"empty spec":         `{"Preset": "fb", "NetworkSpec": {"Name":"x","Layers":[]}}`,
		"unknown name":       `{"Preset": "fb", "Network": "LeNet"}`,
	}
	for label, req := range cases {
		status, body := post(t, url+"/v1/evaluate", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", label, status, body)
		}
	}
	// The unknown-name error must list the valid names.
	_, body := post(t, url+"/v1/evaluate", `{"Preset": "fb", "Network": "LeNet"}`)
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ResNet-50", "BERT-base", "ViT-B/16"} {
		if !strings.Contains(er.Error, want) {
			t.Errorf("miss error %q does not list %q", er.Error, want)
		}
	}
}
