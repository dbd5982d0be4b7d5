package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; nothing inside the program is instrumented. Spans of one
// operation share a trace ID, and Parent names the span that caused it.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps every span of a traced run in memory; a nil *spans records
// nothing, which is how the untraced runs call the same code.
type spans struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// ref identifies an open span for its children.
type ref struct {
	s     *spans
	trace int64
	id    int64
	name  string
	start int64
}

// root opens a span that starts a new trace.
func (s *spans) root(name string) ref {
	if s == nil {
		return ref{}
	}
	s.mu.Lock()
	s.next++
	id := s.next
	s.mu.Unlock()
	return ref{s: s, trace: id, id: id, name: name, start: int64(time.Since(s.t0))}
}

// child opens a span caused by r.
func (r ref) child(name string) ref {
	if r.s == nil {
		return ref{}
	}
	r.s.mu.Lock()
	r.s.next++
	id := r.s.next
	r.s.mu.Unlock()
	return ref{s: r.s, trace: r.trace, id: id, name: name, start: int64(time.Since(r.s.t0))}
}

// end closes the span; its parent is the span that opened it.
func (r ref) end(parent ref) {
	if r.s == nil {
		return
	}
	sp := span{Trace: r.trace, ID: r.id, Parent: parent.id, Name: r.name, Start: r.start, End: int64(time.Since(r.s.t0))}
	r.s.mu.Lock()
	r.s.spans = append(r.s.spans, sp)
	r.s.mu.Unlock()
}

// call runs fn inside a child span of parent named name.
func (parent ref) call(name string, fn func()) {
	c := parent.child(name)
	fn()
	c.end(parent)
}

// selfShare is the share of all root spans' time not covered by their
// children: the benchmark's own work (checks, bookkeeping) inside the
// measured loop.
func (s *spans) selfShare() float64 {
	if s == nil {
		return 0
	}
	kids := map[int64][]interval{}
	var roots []span
	for _, sp := range s.spans {
		if sp.Parent == 0 {
			roots = append(roots, sp)
		} else {
			kids[sp.Parent] = append(kids[sp.Parent], interval{sp.Start, sp.End})
		}
	}
	var self, total int64
	for _, r := range roots {
		self += selfTime(interval{r.Start, r.End}, kids[r.ID])
		total += r.End - r.Start
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// write saves the spans as JSON lines.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
