package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system under test.
// Spans of one request or operation share a trace id; parent links a phase to
// the call it belongs to (0 for a root).
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Trace  uint64  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t      *tracer
	id     uint64
	parent uint64
	trace  uint64
	name   string
	start  time.Time
}

// begin opens a span. parent may be nil for a root span, which starts a new
// trace.
func (t *tracer) begin(name string, parent *spanRef) *spanRef {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	ref := &spanRef{t: t, id: id, trace: id, name: name, start: time.Now()}
	if parent != nil {
		ref.parent, ref.trace = parent.id, parent.trace
	}
	return ref
}

// end closes the span and returns its duration (0 for a nil span).
func (s *spanRef) end() time.Duration {
	if s == nil {
		return 0
	}
	return s.t.record(s.name, s.id, s.parent, s.trace, s.start, time.Now())
}

// phase records a completed child span of s between two instants, for phases
// observed through callbacks (net/http/httptrace).
func (s *spanRef) phase(name string, start, end time.Time) {
	if s == nil || start.IsZero() || end.IsZero() {
		return
	}
	s.t.mu.Lock()
	s.t.next++
	id := s.t.next
	s.t.mu.Unlock()
	s.t.record(name, id, s.id, s.trace, start, end)
}

func (t *tracer) record(name string, id, parent, trace uint64, start, end time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return end.Sub(start)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
