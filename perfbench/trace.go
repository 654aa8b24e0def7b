// This file is the benchmark's span recorder: spans from the benchmark's
// own calls into each layer, plus the spans the program already emits
// (?trace=1 responses, Conv2DCtx traces, the coordinator's Config.Trace),
// kept in memory and written out at the end as one Chrome trace and a
// per-layer self-time table.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"refocus/internal/obs"
)

// span is one finished span on the recorder's timeline. Spans on one
// lane nest by time containment; a lane is one sequential thread of work
// (a benchmark caller, or one lane of one folded program trace).
type span struct {
	name       string
	lane       int
	start, dur time.Duration
}

// recorder collects spans in memory. A nil *recorder records nothing,
// so untraced passes call the same code.
type recorder struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	lanes    int
	callers  map[int]bool // lanes the benchmark's own callers run on
	windowLo time.Duration
	windowHi time.Duration
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), callers: map[int]bool{}}
}

// newLane allocates a lane; caller marks it as one of the benchmark's
// own sequential callers (the lanes "other" time is measured on).
func (r *recorder) newLane(caller bool) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lanes++
	if caller {
		r.callers[r.lanes] = true
	}
	return r.lanes
}

// window marks the measured interval; "other" time is caller-lane time
// inside it that no span covers.
func (r *recorder) window(from, to time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.windowLo, r.windowHi = from.Sub(r.t0), to.Sub(r.t0)
	r.mu.Unlock()
}

// add records a finished span.
func (r *recorder) add(name string, lane int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, lane: lane, start: start.Sub(r.t0), dur: end.Sub(start)})
	r.mu.Unlock()
}

// foldObs merges a program-emitted obs.Trace created at created: its
// lane 1 lands on lane, every other lane of it on a fresh lane.
func (r *recorder) foldObs(tr *obs.Trace, created time.Time, lane int) {
	if r == nil || tr == nil {
		return
	}
	off := created.Sub(r.t0)
	events := tr.Events()
	r.mu.Lock()
	defer r.mu.Unlock()
	laneOf := map[int]int{1: lane}
	for _, e := range events {
		l, ok := laneOf[e.TID]
		if !ok {
			r.lanes++
			l = r.lanes
			laneOf[e.TID] = l
		}
		r.spans = append(r.spans, span{name: e.Name, lane: l, start: off + e.Start, dur: e.Dur})
	}
}

// foldConcurrent merges a program-emitted trace whose spans on one lane
// may overlap (the coordinator records every dispatch on lane 1 from
// many goroutines): each span gets a lane of its own.
func (r *recorder) foldConcurrent(tr *obs.Trace, created time.Time) {
	if r == nil || tr == nil {
		return
	}
	off := created.Sub(r.t0)
	events := tr.Events()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range events {
		r.lanes++
		r.spans = append(r.spans, span{name: e.Name, lane: r.lanes, start: off + e.Start, dur: e.Dur})
	}
}

// chromeEvent is the subset of a trace_event the server returns that
// folding needs.
type chromeEvent struct {
	Name string  `json:"name"`
	TID  int     `json:"tid"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// foldResponseTrace merges the Chrome trace a ?trace=1 response carries.
// The server's clock starts when the handler runs; the trace is placed so
// its serve.request span sits centred inside the client span [from, to],
// on the client's lane. It returns the serve.request duration.
func (r *recorder) foldResponseTrace(raw json.RawMessage, lane int, from, to time.Time) (time.Duration, error) {
	var f struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return 0, fmt.Errorf("decoding response trace: %w", err)
	}
	var root *chromeEvent
	for i := range f.TraceEvents {
		if f.TraceEvents[i].Name == "serve.request" {
			root = &f.TraceEvents[i]
		}
	}
	if root == nil {
		return 0, fmt.Errorf("response trace has no serve.request span")
	}
	rootDur := time.Duration(root.Dur * float64(time.Microsecond))
	client := to.Sub(from)
	base := from.Sub(r.t0) + (client-rootDur)/2 - time.Duration(root.TS*float64(time.Microsecond))
	r.mu.Lock()
	defer r.mu.Unlock()
	laneOf := map[int]int{root.TID: lane}
	for _, e := range f.TraceEvents {
		l, ok := laneOf[e.TID]
		if !ok {
			r.lanes++
			l = r.lanes
			laneOf[e.TID] = l
		}
		r.spans = append(r.spans, span{
			name:  e.Name,
			lane:  l,
			start: base + time.Duration(e.TS*float64(time.Microsecond)),
			dur:   time.Duration(e.Dur * float64(time.Microsecond)),
		})
	}
	return rootDur, nil
}

// named returns the spans with the given name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// totalOf sums the durations of the spans with the given name, and
// counts them.
func (r *recorder) totalOf(name string) (time.Duration, int) {
	var sum time.Duration
	spans := r.named(name)
	for _, s := range spans {
		sum += s.dur
	}
	return sum, len(spans)
}

// selfTimes computes each span's self time: its duration minus the part
// of it that its children on the same lane cover.
func (r *recorder) selfTimes() (map[string]time.Duration, time.Duration) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	callers := r.callers
	lo, hi := r.windowLo, r.windowHi
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].lane != spans[j].lane {
			return spans[i].lane < spans[j].lane
		}
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].dur > spans[j].dur
	})
	self := map[string]time.Duration{}
	var other time.Duration
	type open struct {
		end     time.Duration
		name    string
		dur     time.Duration
		covered time.Duration
	}
	var stack []*open
	closeTo := func(t time.Duration) {
		for len(stack) > 0 && stack[len(stack)-1].end <= t {
			top := stack[len(stack)-1]
			self[top.name] += top.dur - top.covered
			stack = stack[:len(stack)-1]
		}
	}
	for i := 0; i < len(spans); {
		lane := spans[i].lane
		j := i
		var topCovered time.Duration
		var lastTopEnd time.Duration = -1
		for ; j < len(spans) && spans[j].lane == lane; j++ {
			s := spans[j]
			closeTo(s.start)
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				end := s.start + s.dur
				if end > parent.end {
					end = parent.end
				}
				parent.covered += end - s.start
			} else if callers[lane] {
				// Top-level caller span: count its part of the window.
				a, b := s.start, s.start+s.dur
				if a < lastTopEnd {
					a = lastTopEnd
				}
				if a < lo {
					a = lo
				}
				if b > hi {
					b = hi
				}
				if b > a {
					topCovered += b - a
				}
				if s.start+s.dur > lastTopEnd {
					lastTopEnd = s.start + s.dur
				}
			}
			stack = append(stack, &open{end: s.start + s.dur, name: s.name, dur: s.dur})
		}
		closeTo(1 << 62)
		if callers[lane] && hi > lo {
			other += (hi - lo) - topCovered
		}
		i = j
	}
	for lane := range callers {
		found := false
		for _, s := range spans {
			if s.lane == lane {
				found = true
				break
			}
		}
		if !found && hi > lo {
			other += hi - lo
		}
	}
	return self, other
}

// module maps a span name to its layer: the prefix before the first dot.
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// export writes the Chrome trace and the self-time table, returning the
// table text.
func (r *recorder) export(tracePath, tablePath string) (string, error) {
	self, other := r.selfTimes()
	byModule := map[string]time.Duration{}
	byName := map[string]time.Duration{}
	var total time.Duration
	for name, d := range self {
		byModule[module(name)] += d
		byName[name] += d
		total += d
	}
	total += other
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer self time (span duration minus the part its children on the same lane cover;\n")
	fmt.Fprintf(&b, "parallel lanes add up, so the total can exceed wall time; other = caller time no span covers):\n")
	mods := make([]string, 0, len(byModule))
	for m := range byModule {
		mods = append(mods, m)
	}
	sort.Slice(mods, func(i, j int) bool { return byModule[mods[i]] > byModule[mods[j]] })
	row := func(name string, d time.Duration) {
		fmt.Fprintf(&b, "  %-28s %12.3f ms %6.2f%%\n", name, ms(d), 100*ratio(float64(d), float64(total)))
	}
	for _, m := range mods {
		row(m, byModule[m])
	}
	row("other", other)
	fmt.Fprintf(&b, "by span:\n")
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	for _, n := range names {
		row(n, byName[n])
	}
	table := b.String()
	if err := os.WriteFile(tablePath, []byte(table), 0o644); err != nil {
		return "", fmt.Errorf("writing self-time table: %w", err)
	}
	if err := r.writeChrome(tracePath); err != nil {
		return "", err
	}
	return table + "chrome trace: " + tracePath + "\nself-time table: " + tablePath, nil
}

// writeChrome writes the spans as Chrome trace_event JSON. Lanes that
// never overlap in time share a display row, so folded per-request lanes
// do not produce one row each.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	callers := r.callers
	r.mu.Unlock()
	type extent struct{ lo, hi time.Duration }
	ext := map[int]*extent{}
	for _, s := range spans {
		e, ok := ext[s.lane]
		if !ok {
			ext[s.lane] = &extent{s.start, s.start + s.dur}
			continue
		}
		if s.start < e.lo {
			e.lo = s.start
		}
		if s.start+s.dur > e.hi {
			e.hi = s.start + s.dur
		}
	}
	lanes := make([]int, 0, len(ext))
	for l := range ext {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool { return ext[lanes[i]].lo < ext[lanes[j]].lo })
	row := map[int]int{}
	var rowEnd []time.Duration
	next := 1
	for l := range callers {
		row[l] = next
		next++
	}
	for _, l := range lanes {
		if _, ok := row[l]; ok {
			continue
		}
		placed := false
		for i, end := range rowEnd {
			if end <= ext[l].lo {
				row[l] = next + i
				rowEnd[i] = ext[l].hi
				placed = true
				break
			}
		}
		if !placed {
			row[l] = next + len(rowEnd)
			rowEnd = append(rowEnd, ext[l].hi)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
			name, row[s.lane], us(s.start), us(s.dur))
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	return nil
}
