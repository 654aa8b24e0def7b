package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toySpec is a minimal job kind: N cells, each squaring its index.
type toySpec struct {
	Name string
	N    int
}

func (s toySpec) WithDefaults() toySpec {
	if s.N == 0 {
		s.N = 8
	}
	return s
}

func (s toySpec) Validate() error {
	if s.N < 0 {
		return errors.New("toy: negative N")
	}
	return nil
}

func (s toySpec) ID() (string, error) { return fmt.Sprintf("%s-%d", s.Name, s.N), nil }
func (s toySpec) Budget() int         { return s.N }

type toyRecord struct{ I, Square int }

func (r toyRecord) Cell() Cell { return Cell{0, r.I} }

// toyFile is the toy kind's checkpoint: the header, then its final sum.
type toyFile struct {
	Checkpoint[toySpec, toyRecord]
	Sum *int `json:",omitempty"`
}

type toyStatus struct {
	ID                      string
	State                   State
	Done, Executed, Resumed int
	Sum                     int
	Error                   string
}

// toyKind runs toy jobs in dir, evaluating cells with eval.
func toyKind(dir string, eval func(context.Context, Cell) (toyRecord, error)) Kind[toySpec, toyRecord, int, toyStatus] {
	newFile := func() File[toySpec, toyRecord] { return new(toyFile) }
	return Kind[toySpec, toyRecord, int, toyStatus]{
		Run: func(ctx context.Context, j *Job[toySpec, toyRecord, int, toyStatus]) (int, error) {
			c := &Cells[toySpec, toyRecord]{ID: j.ID(), Spec: j.Spec(), New: newFile, Hooks: j.Hooks()}
			if dir != "" {
				c.Path = filepath.Join(dir, j.ID()+".json")
			}
			if err := c.Resume(func(r toyRecord) bool { return r.I < j.Spec().N }); err != nil {
				return 0, err
			}
			var pending []Cell
			for i := 0; i < j.Spec().N; i++ {
				if _, ok := c.Done()[Cell{0, i}]; !ok {
					pending = append(pending, Cell{0, i})
				}
			}
			err := c.Run(ctx, 4, pending, eval, func(r toyRecord, _ int) { j.Publish(r) })
			if err != nil {
				return 0, err
			}
			sum := 0
			for _, r := range c.Done() {
				sum += r.Square
			}
			return sum, c.Commit(&toyFile{Sum: &sum})
		},
		Status: func(p Progress[toySpec, toyRecord, int]) toyStatus {
			return toyStatus{ID: p.ID, State: p.State, Done: len(p.Done), Executed: p.Executed, Resumed: p.Resumed, Sum: p.Result, Error: p.Error}
		},
		Load: func(dir, id string) (Progress[toySpec, toyRecord, int], error) {
			f := new(toyFile)
			if err := Load[toySpec, toyRecord](filepath.Join(dir, id+".json"), f); err != nil {
				return Progress[toySpec, toyRecord, int]{}, err
			}
			p := Progress[toySpec, toyRecord, int]{ID: f.ID, Spec: f.Spec, State: Interrupted, Done: f.Done, Resumed: len(f.Done)}
			if f.Sum != nil {
				p.State, p.Result = Done, *f.Sum
			}
			return p, nil
		},
	}
}

func square(ctx context.Context, c Cell) (toyRecord, error) {
	if err := ctx.Err(); err != nil {
		return toyRecord{}, err
	}
	return toyRecord{I: c[1], Square: c[1] * c[1]}, nil
}

// TestRunnerCellsResumeAndCheckpoint: an interrupted run leaves a
// partial checkpoint, a second run resumes it without recomputing a
// cell, and a checkpoint of another job is refused.
func TestRunnerCellsResumeAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	m, err := NewManager(toyKind(dir, func(ctx context.Context, c Cell) (toyRecord, error) {
		if c[1] == 5 {
			cancel()
		}
		return square(ctx, c)
	}), dir, 1, Hooks[toyRecord]{})
	if err != nil {
		t.Fatal(err)
	}
	spec := toySpec{Name: "toy", N: 16}
	j, _, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	m.Close()
	<-j.Done()
	st, err := m.StatusFromDisk(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Interrupted || st.Done == 0 || st.Done >= spec.N {
		t.Fatalf("interrupted checkpoint reads back as %+v, want a strict partial", st)
	}

	m2, err := NewManager(toyKind(dir, square), dir, 1, Hooks[toyRecord]{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, _, err := m2.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	done := j2.Status()
	if done.State != Done || done.Resumed != st.Done || done.Executed+done.Resumed != spec.N || done.Sum != 1240 {
		t.Errorf("resumed job status %+v, want done with %d resumed of %d and sum 1240", done, st.Done, spec.N)
	}
	if disk, err := m2.StatusFromDisk(j2.ID()); err != nil || disk.State != Done || disk.Sum != 1240 {
		t.Errorf("finished checkpoint reads back as %+v (%v)", disk, err)
	}

	other := &Cells[toySpec, toyRecord]{Path: filepath.Join(dir, j2.ID()+".json"), ID: "someone-else",
		New: func() File[toySpec, toyRecord] { return new(toyFile) }}
	if err := other.Resume(func(toyRecord) bool { return true }); !errors.Is(err, ErrWrongJob) {
		t.Errorf("foreign checkpoint: got %v, want ErrWrongJob", err)
	}
	for name, body := range map[string]string{
		"version": `{"Version": 2, "ID": "x"}`,
		"unknown": `{"Version": 1, "ID": "x", "Bogus": 1}`,
		"torn":    `{"Version": 1, "ID": "x"`,
		"no ID":   `{"Version": 1}`,
	} {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Load[toySpec, toyRecord](path, new(toyFile)); err == nil {
			t.Errorf("%s: Load accepted %s", name, body)
		}
	}
}

// TestManagerAttachBusyAndFail: a resubmitted spec attaches to its
// running job, a second job past the limit is ErrBusy, and an
// evaluation error fails the job with its message.
func TestManagerAttachBusyAndFail(t *testing.T) {
	release := make(chan struct{})
	m, err := NewManager(toyKind("", func(ctx context.Context, c Cell) (toyRecord, error) {
		if c[1] == 3 {
			return toyRecord{}, errors.New("cell exploded")
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return square(ctx, c)
	}), "", 1, Hooks[toyRecord]{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, created, err := m.Start(toySpec{Name: "a"})
	if err != nil || !created {
		t.Fatalf("first start: created=%v err=%v", created, err)
	}
	if again, created, err := m.Start(toySpec{Name: "a"}); err != nil || created || again != j {
		t.Errorf("resubmit: created=%v err=%v same=%v", created, err, again == j)
	}
	if _, _, err := m.Start(toySpec{Name: "b"}); !errors.Is(err, ErrBusy) {
		t.Errorf("second job: got %v, want ErrBusy", err)
	}
	close(release)
	<-j.Done()
	if st := j.Status(); st.State != Failed || !strings.Contains(st.Error, "cell exploded") {
		t.Errorf("failed job status %+v", st)
	}
	if _, err := m.StatusFromDisk(j.ID()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("dirless StatusFromDisk: got %v, want os.ErrNotExist", err)
	}
}

// TestStreamFinalLine: a stream carries the published lines, then a
// final line with the terminal status; a late subscriber gets only the
// final line.
func TestStreamFinalLine(t *testing.T) {
	m, err := NewManager(toyKind("", square), "", 1, Hooks[toyRecord]{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, _, err := m.Start(toySpec{Name: "s", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, late := range []bool{false, true} {
		if late {
			<-j.Done()
		}
		rec := httptest.NewRecorder()
		Stream(rec, httptest.NewRequest("POST", "/", nil), j, nil)
		if ct := rec.Header().Get("Content-Type"); ct != NDJSONContentType {
			t.Errorf("Content-Type = %q", ct)
		}
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var final struct {
			Type             string
			Completed, Total int
			Status           *toyStatus
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
			t.Fatal(err)
		}
		if final.Type != "done" || final.Completed != 4 || final.Total != 4 || final.Status == nil || final.Status.Sum != 14 {
			t.Errorf("late=%v: final line %s", late, lines[len(lines)-1])
		}
		if late && len(lines) != 1 {
			t.Errorf("late subscriber got %d lines, want only the final one", len(lines))
		}
	}
}
