package job

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Hooks observe a job kind's events, letting a serving tier count
// metrics without the kind importing it. Every field is optional. Cells
// fires Executed and Resumed; Manager fires Started and Finished.
type Hooks[R any] struct {
	// Started fires when a job begins running, Finished when it ends
	// (err nil on success).
	Started  func()
	Finished func(err error)
	// Executed fires for every cell completed in this process, Resumed
	// for every cell a checkpoint already held.
	Executed func(R)
	Resumed  func(R)
}

// Cells is the durable state of one job run: the completed cells,
// checkpointed after every new one, and the bounded worker pool that
// completes the rest. Fill the exported fields, call Resume, then Run
// once per batch of cells (a campaign runs one batch, a search one per
// generation), and Commit the finished checkpoint.
type Cells[S any, R Record] struct {
	// Path is the checkpoint file; "" runs without durability.
	Path string
	// ID and Spec identify the job the checkpoint belongs to.
	ID   string
	Spec S
	// New returns an empty checkpoint of the kind, ready to decode into
	// or to write with an empty final block.
	New func() File[S, R]
	// Hooks observe executed and resumed cells.
	Hooks Hooks[R]

	mu       sync.Mutex
	done     map[Cell]R
	resumed  int
	executed int
}

// Resume loads the records a checkpoint at Path already holds, keeping
// those keep accepts (cells inside the spec's grid), and fires
// Hooks.Resumed for each. A missing checkpoint is a first run.
func (c *Cells[S, R]) Resume(keep func(R) bool) error {
	c.done = make(map[Cell]R)
	if c.Path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(c.Path), 0o755); err != nil {
		return fmt.Errorf("job: checkpoint dir: %w", err)
	}
	f := c.New()
	switch err := Load(c.Path, f); {
	case errors.Is(err, os.ErrNotExist):
		return nil
	case err != nil:
		return err
	case f.checkpoint().ID != c.ID:
		return fmt.Errorf("%w: file %s holds %s, want %s", ErrWrongJob, c.Path, f.checkpoint().ID, c.ID)
	}
	for _, r := range f.checkpoint().Done {
		if keep(r) {
			c.done[r.Cell()] = r
		}
	}
	c.resumed = len(c.done)
	if h := c.Hooks.Resumed; h != nil {
		for _, r := range c.done {
			h(r)
		}
	}
	return nil
}

// Done returns the completed records by cell. It is the run's own map:
// read it only while no Run is in progress.
func (c *Cells[S, R]) Done() map[Cell]R { return c.done }

// Resumed counts the cells Resume loaded.
func (c *Cells[S, R]) Resumed() int { return c.resumed }

// Executed counts the cells Run completed.
func (c *Cells[S, R]) Executed() int { return c.executed }

// Row returns the completed records of cells {major, 0} … {major, n-1}
// in order: one severity's trials, one generation's candidates.
func (c *Cells[S, R]) Row(major, n int) []R {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []R
	for i := 0; i < n; i++ {
		if r, ok := c.done[Cell{major, i}]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Run completes the pending cells with eval on up to workers goroutines
// (<1 means 2). Each finished cell is recorded and the checkpoint
// rewritten under the run's lock; then, outside it, the cell goes to
// Hooks.Executed and to onDone with the count of cells completed so far.
// The first error (an evaluation, a checkpoint write, or ctx ending)
// stops the rest and is returned.
func (c *Cells[S, R]) Run(ctx context.Context, workers int, pending []Cell,
	eval func(context.Context, Cell) (R, error), onDone func(r R, completed int)) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	if workers < 1 {
		workers = 2
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	next := make(chan Cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range next {
				r, err := eval(cctx, cell)
				f := c.New()
				c.mu.Lock()
				if err != nil {
					fail(err)
					c.mu.Unlock()
					continue
				}
				c.done[cell] = r
				c.executed++
				completed := len(c.done)
				if err := c.write(f); err != nil {
					fail(err)
				}
				c.mu.Unlock()
				if h := c.Hooks.Executed; h != nil {
					h(r)
				}
				if onDone != nil {
					onDone(r, completed)
				}
			}
		}()
	}
feed:
	for _, cell := range pending {
		select {
		case next <- cell:
		case <-cctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// Commit writes the finished checkpoint f: the records so far plus the
// final block the caller filled in.
func (c *Cells[S, R]) Commit(f File[S, R]) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.write(f)
}

// write fills f's header with the records so far and persists it.
func (c *Cells[S, R]) write(f File[S, R]) error {
	if c.Path == "" {
		return nil
	}
	*f.checkpoint() = Checkpoint[S, R]{Version: Version, ID: c.ID, Spec: c.Spec, Done: Sorted(c.done)}
	return Write(c.Path, f)
}
