package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"refocus/internal/arch"
)

// ResultStore is the result cache behind the evaluation service, keyed by
// the canonical cache key (config hash | optional fault hash | network
// hash). Reports are deterministic for a given key — arch.Evaluate is a
// pure function of (config, network) — so any two stores holding the same
// key hold bit-identical reports, and implementations never need
// invalidation, only capacity management. The in-process LRU is the
// default; DiskStore layers a content-addressed on-disk tier underneath
// it so results survive restarts and are shared (deduplicated) by every
// shard pointed at the same directory.
type ResultStore interface {
	// Get returns the report cached under key, if present.
	Get(key string) (arch.Report, bool)
	// Put stores a report under key. Implementations may drop entries to
	// respect capacity; Put never fails from the caller's point of view.
	Put(key string, r arch.Report)
	// Len returns the resident in-memory entry count (the number the
	// cache-entries gauge reports).
	Len() int
	// Cap returns the in-memory capacity in entries.
	Cap() int
}

// diskHitCounter is implemented by stores with a persistent tier that
// want disk-level hits surfaced in /metrics (see CacheStats.DiskHits).
type diskHitCounter interface {
	// DiskHits counts Gets answered from the persistent tier — keys this
	// process never evaluated, found because another shard (or a previous
	// incarnation of this one) wrote them.
	DiskHits() int64
}

// DiskStore is a two-tier ResultStore: an in-memory LRU in front of a
// content-addressed on-disk report store. Every Put lands in both tiers;
// a Get missing in memory falls through to disk and promotes on hit.
// File names are the SHA-256 of the cache key, so the directory is a flat
// content-addressed table any number of shard processes can share — a
// report computed once, anywhere in the cluster, is a disk hit everywhere
// else, and all of it survives restarts. Writes go through a unique temp
// file and an atomic rename, so concurrent writers (other shards) can
// never leave a torn entry; duplicate writes are skipped, which is the
// cluster-wide dedup.
type DiskStore struct {
	dir string
	mem *reportCache

	diskHits atomic.Int64
	tmpSeq   atomic.Int64
}

// NewDiskStore opens (creating if needed) the content-addressed store in
// dir, fronted by an in-memory LRU of memEntries reports (values < 1 get
// the package default).
func NewDiskStore(dir string, memEntries int) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating disk store: %w", err)
	}
	return &DiskStore{dir: dir, mem: newReportCache(memEntries)}, nil
}

// path maps a cache key to its content-addressed file name.
func (d *DiskStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".json")
}

// load reads and decodes the disk entry at path. A missing, torn or
// foreign file is not an entry.
func load(path string) (arch.Report, bool) {
	var r arch.Report
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &r) != nil {
		return arch.Report{}, false
	}
	return r, true
}

// Get probes the memory tier, then disk. A disk hit is promoted into
// memory and counted — it is a result this process did not compute. An
// entry that does not decode is a miss, rewritten wholesale by the next
// Put.
func (d *DiskStore) Get(key string) (arch.Report, bool) {
	if r, ok := d.mem.Get(key); ok {
		return r, true
	}
	r, ok := load(d.path(key))
	if !ok {
		return arch.Report{}, false
	}
	d.mem.Put(key, r)
	d.diskHits.Add(1)
	return r, true
}

// Put stores the report in memory and on disk. An existing disk entry
// that decodes is left alone — reports are deterministic per key, so the
// bytes already there are the bytes we would write; one that does not
// decode is replaced.
func (d *DiskStore) Put(key string, r arch.Report) {
	d.mem.Put(key, r)
	path := d.path(key)
	if _, ok := load(path); ok {
		return // already persisted by us or another shard
	}
	data, err := json.Marshal(r)
	if err != nil {
		return // unencodable report: keep the memory tier, skip disk
	}
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), d.tmpSeq.Add(1))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
	}
}

// Len returns the in-memory entry count (what the entries gauge shows).
func (d *DiskStore) Len() int { return d.mem.Len() }

// Cap returns the in-memory tier's capacity.
func (d *DiskStore) Cap() int { return d.mem.Cap() }

// DiskHits counts Gets served from the on-disk tier.
func (d *DiskStore) DiskHits() int64 { return d.diskHits.Load() }
