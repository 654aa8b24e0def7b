package job

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// Version is the checkpoint schema version; a loader refuses a file
// written by any other format instead of misreading it.
const Version = 1

// ErrWrongJob reports a checkpoint whose ID is not the job resuming
// from it.
var ErrWrongJob = errors.New("job: checkpoint belongs to a different job")

// tmpSeq distinguishes concurrent temp files within one process (the
// DiskStore idiom: pid + sequence, then an atomic rename).
var tmpSeq atomic.Int64

// Cell addresses one unit of a job's work: (severity, trial) for a
// robustness campaign, (generation, index) for a design-space search.
// Cells order lexicographically, which is the canonical order of every
// checkpoint and result.
type Cell [2]int

// Record is one completed cell, the checkpoint's unit of durability.
type Record interface{ Cell() Cell }

// Checkpoint opens every kind's checkpoint file. A kind's checkpoint
// type embeds it first and then adds the block its finished job writes,
// so a file reads Version, ID, Spec, Done, then the kind's fields.
type Checkpoint[S any, R Record] struct {
	// Version is the schema version (Version).
	Version int
	// ID is the identity of the job the file belongs to; a resume
	// rejects a mismatch rather than mixing in someone else's cells.
	ID string
	// Spec is the defaulted spec.
	Spec S
	// Done lists the completed cells in cell order.
	Done []R
}

func (c *Checkpoint[S, R]) checkpoint() *Checkpoint[S, R] { return c }

// File is a kind's checkpoint type: a pointer to a struct embedding
// Checkpoint.
type File[S any, R Record] interface {
	checkpoint() *Checkpoint[S, R]
}

// Load reads the checkpoint at path into f, rejecting unknown fields,
// torn files, other schema versions and files without an ID. A missing
// file returns an error satisfying errors.Is(err, os.ErrNotExist), the
// normal first-run case.
func Load[S any, R Record](path string, f File[S, R]) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(f); err != nil {
		return fmt.Errorf("job: parsing checkpoint %s: %w", path, err)
	}
	switch cp := f.checkpoint(); {
	case cp.Version != Version:
		return fmt.Errorf("job: checkpoint %s has version %d, want %d", path, cp.Version, Version)
	case cp.ID == "":
		return fmt.Errorf("job: checkpoint %s carries no job ID", path)
	}
	return nil
}

// Write persists f atomically at path: marshal, write a uniquely named
// temp file in the same directory, rename it over the destination.
// Readers never observe a partial file, and a crash leaves at most a
// stale temp file behind.
func Write(path string, f any) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("job: encoding checkpoint: %w", err)
	}
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpSeq.Add(1))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("job: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("job: committing checkpoint: %w", err)
	}
	return nil
}

// Sorted returns the records in cell order, independent of the order
// they completed in.
func Sorted[R Record](done map[Cell]R) []R {
	out := make([]R, 0, len(done))
	for _, r := range done {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Cell(), out[j].Cell()
		return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
	})
	return out
}
