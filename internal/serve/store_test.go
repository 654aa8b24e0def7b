package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/nn"
)

// sampleReport evaluates one real (config, network) pair so store tests
// round-trip a fully populated report, not a zero value.
func sampleReport(t *testing.T) (string, arch.Report) {
	t.Helper()
	cfg := arch.FB()
	reports, err := arch.EvaluateAll(cfg, []nn.Network{nn.ResNet18()})
	if err != nil {
		t.Fatal(err)
	}
	key, err := RouteKey(EvaluateRequest{Preset: "fb", Network: "ResNet-18"}, SpecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	return key, reports[0]
}

// TestDiskStoreRoundTrip: a Put is readable back bit-identically through
// a fresh store on the same directory — the restart-survival contract.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key, report := sampleReport(t)

	first, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	first.Put(key, report)
	if _, ok := first.Get(key); !ok {
		t.Fatal("just-put key missing")
	}
	if first.DiskHits() != 0 {
		t.Errorf("memory-tier hit counted as disk hit: %d", first.DiskHits())
	}

	// A new store (a restarted shard) finds the entry on disk.
	second, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := second.Get(key)
	if !ok {
		t.Fatal("entry did not survive the restart")
	}
	if second.DiskHits() != 1 {
		t.Errorf("disk hits = %d, want 1", second.DiskHits())
	}
	a, _ := json.Marshal(report)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("disk round trip not bit-identical:\n%s\nvs\n%s", a, b)
	}
	// The promotion into memory makes the repeat a memory hit.
	if _, ok := second.Get(key); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}
	if second.DiskHits() != 1 {
		t.Errorf("promoted repeat counted as another disk hit: %d", second.DiskHits())
	}
}

// TestDiskStoreSharedDirectory: two stores on one directory — two shard
// processes — deduplicate: what one computes, the other hits.
func TestDiskStoreSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	key, report := sampleReport(t)

	shardA, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardB, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shardB.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	shardA.Put(key, report)
	if _, ok := shardB.Get(key); !ok {
		t.Fatal("shard B missed a result shard A wrote")
	}
	if shardB.DiskHits() != 1 {
		t.Errorf("cross-shard hit not counted as a disk hit: %d", shardB.DiskHits())
	}
	// Putting the same key again must not rewrite the file (dedup): the
	// content-addressed entry already holds the deterministic bytes.
	shardB.Put(key, report)
}

// TestDiskStoreMissAndTornEntry: unknown keys and unreadable files are
// plain misses, never errors.
func TestDiskStoreMissAndTornEntry(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("no-such-key"); ok {
		t.Error("miss reported as hit")
	}
	// A torn write (invalid JSON) must read as a miss.
	key, report := sampleReport(t)
	if err := os.WriteFile(d.path(key), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key); ok {
		t.Error("torn entry reported as hit")
	}
	// A fresh key works end to end.
	d.Put(key+"-fresh", report)
	if _, ok := d.Get(key + "-fresh"); !ok {
		t.Error("fresh key missing after Put")
	}
	// The next Put over the torn entry repairs it on disk: a new store on
	// the same directory serves the key as a disk hit.
	d.Put(key, report)
	restarted, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restarted.Get(key); !ok || restarted.DiskHits() != 1 {
		t.Errorf("torn entry not repaired by Put: hit=%v disk hits=%d", ok, restarted.DiskHits())
	}
}

// TestServerWithDiskStore: the service wired to a DiskStore reports disk
// hits in the metrics snapshot — the cluster-wide dedup signal CI
// asserts on.
func TestServerWithDiskStore(t *testing.T) {
	dir := t.TempDir()
	storeA, err := NewDiskStore(filepath.Join(dir, "shared"), 64)
	if err != nil {
		t.Fatal(err)
	}
	_, urlA := testServer(t, Config{Store: storeA})
	req := `{"Preset": "fb", "Network": "ResNet-18"}`
	if status, body := post(t, urlA+"/v1/evaluate", req); status != 200 {
		t.Fatalf("shard A evaluate: %d %s", status, body)
	}

	// A second server on the same directory — another shard — serves the
	// same request from disk without evaluating.
	storeB, err := NewDiskStore(filepath.Join(dir, "shared"), 64)
	if err != nil {
		t.Fatal(err)
	}
	sB, urlB := testServer(t, Config{Store: storeB})
	if status, body := post(t, urlB+"/v1/evaluate", req); status != 200 {
		t.Fatalf("shard B evaluate: %d %s", status, body)
	}
	snap := sB.MetricsSnapshot()
	if snap.Evaluations != 0 {
		t.Errorf("shard B re-evaluated %d times; want 0 (disk hit)", snap.Evaluations)
	}
	if snap.Cache.Hits != 1 || snap.Cache.DiskHits != 1 {
		t.Errorf("shard B cache stats %+v, want 1 hit / 1 disk hit", snap.Cache)
	}
}
