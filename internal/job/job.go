// Package job is the lifecycle every long-running job kind shares: the
// robustness campaigns of internal/robust and the design-space searches
// of internal/opt. A Manager starts jobs, attaches a resubmitted spec to
// its running job, bounds how many run at once (ErrBusy, which the
// serving tiers answer with 429), reads a dead job's status back from
// its checkpoint, and cancels everything on Close. A live Job keeps its
// records and fans stream lines out to NDJSON subscribers. Cells holds
// one run's atomic, strictly versioned checkpoint and the bounded worker
// pool that resumes it, checkpoints after every cell and stops at the
// first error. A kind supplies only what differs: its spec, how one
// cell is evaluated, its result and its status (see Kind).
package job

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
)

// State is a job's lifecycle state as its status reports it.
type State string

// Job lifecycle states. Interrupted is only ever reported from disk: a
// checkpoint exists but no live job does, i.e. the process died
// mid-job and resubmitting the spec resumes it.
const (
	Running     State = "running"
	Done        State = "done"
	Failed      State = "failed"
	Interrupted State = "interrupted"
)

// ErrBusy reports that the manager already runs its maximum number of
// concurrent jobs; the serving tiers map it to 429 with a Retry-After,
// mirroring worker-slot shedding.
var ErrBusy = errors.New("job: too many active jobs")

// Spec is what the lifecycle needs of a kind's spec.
type Spec[S any] interface {
	// WithDefaults fills unset fields; Validate rejects the result
	// before any work starts.
	WithDefaults() S
	Validate() error
	// ID is the job identity: equal defaulted specs share one job and
	// one checkpoint.
	ID() (string, error)
	// Budget is the number of cells the job runs at most.
	Budget() int
}

// Progress is a job's state as the lifecycle tracks it, the input of a
// kind's status.
type Progress[S any, R Record, F any] struct {
	ID    string
	Spec  S
	State State
	// Done lists the completed records in cell order, split into
	// Executed (computed by a live process) and Resumed (recovered from
	// the checkpoint).
	Done     []R
	Executed int
	Resumed  int
	// Result is the finished job's result; set only when State is Done.
	Result F
	// Error explains a failed job.
	Error string
}

// Kind is what a job kind lends the lifecycle.
type Kind[S Spec[S], R Record, F, St any] struct {
	// Run executes one job to completion, reporting cells through
	// j.Hooks and stream lines through j.Publish.
	Run func(ctx context.Context, j *Job[S, R, F, St]) (F, error)
	// Status renders progress as the kind's wire status.
	Status func(Progress[S, R, F]) St
	// Load reads the checkpoint of job id in dir: Done with its result
	// if the job finished, Interrupted otherwise.
	Load func(dir, id string) (Progress[S, R, F], error)
}

// Manager owns a kind's jobs for a serving process.
type Manager[S Spec[S], R Record, F, St any] struct {
	kind      Kind[S, R, F, St]
	dir       string
	maxActive int
	hooks     Hooks[R]
	ctx       context.Context
	cancel    context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*Job[S, R, F, St]
	wg   sync.WaitGroup
}

// NewManager builds a manager checkpointing into dir ("" runs jobs
// without durability) and running at most maxActive jobs at once,
// creating dir if needed.
func NewManager[S Spec[S], R Record, F, St any](kind Kind[S, R, F, St], dir string, maxActive int, hooks Hooks[R]) (*Manager[S, R, F, St], error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("job: checkpoint dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager[S, R, F, St]{kind: kind, dir: dir, maxActive: maxActive, hooks: hooks,
		ctx: ctx, cancel: cancel, jobs: make(map[string]*Job[S, R, F, St])}, nil
}

// Start launches a job for spec, or attaches to the running job with
// the same identity (created reports which). A spec whose checkpoint
// exists resumes from it. Returns ErrBusy when maxActive jobs already
// run.
func (m *Manager[S, R, F, St]) Start(spec S) (j *Job[S, R, F, St], created bool, err error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	id, err := spec.ID()
	if err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("job: manager closed: %w", err)
	}
	if j, ok := m.jobs[id]; ok && !j.finished() {
		return j, false, nil
	}
	active := 0
	for _, j := range m.jobs {
		if !j.finished() {
			active++
		}
	}
	if active >= m.maxActive {
		return nil, false, ErrBusy
	}
	j = &Job[S, R, F, St]{id: id, spec: spec, status: m.kind.Status, hooks: m.hooks,
		records: make(map[Cell]R), subs: make(map[chan any]struct{}), doneCh: make(chan struct{})}
	m.jobs[id] = j
	m.wg.Add(1)
	go m.run(j)
	return j, true, nil
}

// run executes one job to completion.
func (m *Manager[S, R, F, St]) run(j *Job[S, R, F, St]) {
	defer m.wg.Done()
	if h := m.hooks.Started; h != nil {
		h()
	}
	res, err := m.kind.Run(m.ctx, j)
	j.finish(res, err)
	if h := m.hooks.Finished; h != nil {
		h(err)
	}
}

// Get returns the live job with the given ID, if any.
func (m *Manager[S, R, F, St]) Get(id string) (*Job[S, R, F, St], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// StatusFromDisk reports a job from its checkpoint: done with its
// result, or interrupted (resubmitting the spec resumes it). A missing
// checkpoint returns an error satisfying errors.Is(err, os.ErrNotExist).
func (m *Manager[S, R, F, St]) StatusFromDisk(id string) (St, error) {
	var st St
	if m.dir == "" {
		return st, os.ErrNotExist
	}
	p, err := m.kind.Load(m.dir, id)
	if err != nil {
		return st, err
	}
	return m.kind.Status(p), nil
}

// Close cancels every running job and waits for them to unwind. Their
// checkpoints survive, so a restarted process resumes them.
func (m *Manager[S, R, F, St]) Close() {
	m.cancel()
	m.wg.Wait()
}

// Job is one live job: its records, its result once finished, and the
// fan-out of its stream lines to subscribers.
type Job[S Spec[S], R Record, F, St any] struct {
	id     string
	spec   S
	status func(Progress[S, R, F]) St
	hooks  Hooks[R]

	mu       sync.Mutex
	done     bool
	records  map[Cell]R
	executed int
	resumed  int
	result   F
	err      error
	subs     map[chan any]struct{}
	doneCh   chan struct{}
}

// ID returns the job identity.
func (j *Job[S, R, F, St]) ID() string { return j.id }

// Spec returns the defaulted spec the job runs.
func (j *Job[S, R, F, St]) Spec() S { return j.spec }

// Done is closed when the job finishes (any outcome).
func (j *Job[S, R, F, St]) Done() <-chan struct{} { return j.doneCh }

func (j *Job[S, R, F, St]) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// Hooks returns the manager's hooks with the job's own record keeping
// in front of the cell hooks: the hooks a kind's runner reports to.
func (j *Job[S, R, F, St]) Hooks() Hooks[R] {
	h := j.hooks
	h.Executed = j.record(false, h.Executed)
	h.Resumed = j.record(true, h.Resumed)
	return h
}

// record keeps one completed cell, then passes it on to next.
func (j *Job[S, R, F, St]) record(resumed bool, next func(R)) func(R) {
	return func(r R) {
		j.mu.Lock()
		j.records[r.Cell()] = r
		if resumed {
			j.resumed++
		} else {
			j.executed++
		}
		j.mu.Unlock()
		if next != nil {
			next(r)
		}
	}
}

// Publish broadcasts a stream line to subscribers. A lagging subscriber
// misses intermediate lines (its channel is full) rather than stalling
// the job; the final line comes from the subscription's close instead.
func (j *Job[S, R, F, St]) Publish(line any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch := range j.subs {
		select {
		case ch <- line:
		default:
		}
	}
}

// finish records the outcome and wakes everyone waiting.
func (j *Job[S, R, F, St]) finish(res F, err error) {
	j.mu.Lock()
	j.done, j.result, j.err = true, res, err
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.mu.Unlock()
	close(j.doneCh)
}

// Subscribe returns a channel of stream lines and a cancel func the
// caller must invoke when done. The channel closes when the job
// finishes (immediately, if it already has).
func (j *Job[S, R, F, St]) Subscribe() (<-chan any, func()) {
	ch := make(chan any, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// Status reports the job's current state through the kind's status,
// built from every record so far: resumed and executed alike.
func (j *Job[S, R, F, St]) Status() St {
	j.mu.Lock()
	p := Progress[S, R, F]{ID: j.id, Spec: j.spec, State: Running, Done: Sorted(j.records),
		Executed: j.executed, Resumed: j.resumed}
	switch {
	case j.done && j.err != nil:
		p.State, p.Error = Failed, j.err.Error()
	case j.done:
		p.State, p.Result = Done, j.result
	}
	j.mu.Unlock()
	return j.status(p)
}
