package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of a run: a learning phase, a lattice
// search, a verification family. Spans form a tree; membership
// questions are recorded as events on the innermost open span.
//
// A nil *Span is valid and silent, so callers never branch on whether
// tracing is enabled.
type Span struct {
	tracer *Tracer
	parent *Span

	// ID is unique within the tracer; ParentID is 0 for roots.
	ID       uint64
	ParentID uint64
	// Name labels the span ("learn/rp", "heads", "lattice-search", …).
	Name string
	// Started and Ended bound the span; Ended is zero while open.
	Started time.Time
	Ended   time.Time
	// Attrs are the span's annotations.
	Attrs []Attr

	events int64 // number of events recorded, for cheap summaries
}

// Event is one point-in-time occurrence inside a span — typically one
// membership question with its phase, purpose and answer.
type Event struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// SpanSink receives the span stream. The Tracer serializes all sink
// calls under its lock, so implementations need no locking of their
// own.
type SpanSink interface {
	// SpanStart is called when a span opens.
	SpanStart(s *Span)
	// SpanEvent is called for each event recorded on a span.
	SpanEvent(s *Span, e Event)
	// SpanEnd is called when a span closes; s.Ended is set.
	SpanEnd(s *Span)
}

// attrReader is implemented by a sink that declares whether it reads
// event attributes. A sink that does not implement it is taken to read
// them.
type attrReader interface {
	readsEventAttrs() bool
}

// readsEventAttrs reports whether sink s reads event attributes.
func readsEventAttrs(s SpanSink) bool {
	r, ok := s.(attrReader)
	return !ok || r.readsEventAttrs()
}

// Tracer creates spans and fans them out to its sinks. A nil *Tracer
// is valid and produces nil (silent) spans.
type Tracer struct {
	mu     sync.Mutex
	sinks  []SpanSink
	nextID atomic.Uint64
	// attrs is set once any sink reads event attributes (see
	// Span.EventAttrsRead).
	attrs atomic.Bool
	// now is the clock, replaceable in tests for deterministic trees.
	now func() time.Time
}

// NewTracer returns a tracer emitting to the given sinks.
func NewTracer(sinks ...SpanSink) *Tracer {
	t := &Tracer{sinks: sinks, now: time.Now}
	for _, s := range sinks {
		if readsEventAttrs(s) {
			t.attrs.Store(true)
		}
	}
	return t
}

// AddSink attaches another sink. It only sees spans started after the
// call.
func (t *Tracer) AddSink(s SpanSink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	if readsEventAttrs(s) {
		t.attrs.Store(true)
	}
	t.mu.Unlock()
}

// SetClock replaces the tracer's clock; tests use it to render
// deterministic trees.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// StartSpan opens a root span. End it with Span.End.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	return t.start(nil, name, attrs)
}

func (t *Tracer) start(parent *Span, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tracer: t,
		parent: parent,
		ID:     t.nextID.Add(1),
		Name:   name,
		Attrs:  attrs,
	}
	if parent != nil {
		s.ParentID = parent.ID
	}
	t.mu.Lock()
	s.Started = t.now()
	for _, sink := range t.sinks {
		sink.SpanStart(s)
	}
	t.mu.Unlock()
	return s
}

// StartChild opens a child span of s. On a nil span it returns nil,
// so instrumentation chains freely when tracing is off.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(s, name, attrs)
}

// Annotate appends attributes to an open span.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.Attrs = append(s.Attrs, attrs...)
	s.tracer.mu.Unlock()
}

// Event records a point-in-time event on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	e := Event{Name: name, Time: t.now(), Attrs: attrs}
	s.events++
	for _, sink := range t.sinks {
		sink.SpanEvent(s, e)
	}
	t.mu.Unlock()
}

// EventAttrsRead reports whether any sink of the span's tracer reads
// event attributes. When none does (a FlightRecorder or a TreeSink
// alone counts events by name), a caller may record an event with no
// attributes and skip building them. A nil span reports false.
func (s *Span) EventAttrsRead() bool {
	return s != nil && s.tracer.attrs.Load()
}

// Events reports how many events the span has recorded.
func (s *Span) Events() int64 {
	if s == nil {
		return 0
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return s.events
}

// End closes the span. Ending a nil or already-ended span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	if !s.Ended.IsZero() {
		t.mu.Unlock()
		return
	}
	s.Ended = t.now()
	for _, sink := range t.sinks {
		sink.SpanEnd(s)
	}
	t.mu.Unlock()
}

// Duration is Ended − Started for a closed span, 0 for an open one.
func (s *Span) Duration() time.Duration {
	if s == nil || s.Ended.IsZero() {
		return 0
	}
	return s.Ended.Sub(s.Started)
}
