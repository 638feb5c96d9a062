package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultFlightSpans is the completed-span ring capacity a
// FlightRecorder gets when none is requested (the -obs-spans default).
const DefaultFlightSpans = 512

// FlightSpan is one span as the flight recorder keeps it: a plain
// value snapshot, detached from the Tracer, safe to hold and marshal
// after the originating span has moved on.
type FlightSpan struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Started and Ended bound the span; Ended is zero while open.
	Started time.Time `json:"started"`
	Ended   time.Time `json:"ended,omitempty"`
	// DurationUS is the span duration in microseconds (0 while open).
	DurationUS int64 `json:"duration_us,omitempty"`
	// Events is the number of events the span recorded.
	Events int64  `json:"events,omitempty"`
	Attrs  []Attr `json:"attrs,omitempty"`
	// Open marks a span that had not ended at snapshot time.
	Open bool `json:"open,omitempty"`
}

// FlightRecorder is a bounded, always-on span sink: it keeps every
// currently-open span plus a ring of the last N completed spans, and
// dumps them on demand — the flight-recorder shape of production
// tracing, where the stream is always captured but never unbounded.
// The obs server's /spans endpoint serves its dump as JSONL.
//
// All operations are O(1) under one short mutex, so the recorder may
// be shared by several tracers (each tracer serializes its own sink
// calls, but different tracers call concurrently) and dumped while
// spans are still being recorded.
type FlightRecorder struct {
	mu   sync.Mutex
	open map[uint64]*FlightSpan
	// ring holds the last cap completed spans; next is the slot the
	// next completed span overwrites, total counts completions ever.
	ring  []FlightSpan
	next  int
	total uint64
}

// NewFlightRecorder returns a recorder keeping the last n completed
// spans; n <= 0 selects DefaultFlightSpans.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightSpans
	}
	return &FlightRecorder{
		open: map[uint64]*FlightSpan{},
		ring: make([]FlightSpan, 0, n),
	}
}

// Capacity reports the completed-span ring capacity.
func (f *FlightRecorder) Capacity() int { return cap(f.ring) }

// snap copies the span's current state into a detached value. Called
// from sink methods only, i.e. under the owning tracer's lock, so
// reading the span's fields is safe.
func snap(s *Span) FlightSpan {
	fs := FlightSpan{
		ID:      s.ID,
		Parent:  s.ParentID,
		Name:    s.Name,
		Started: s.Started,
	}
	if len(s.Attrs) > 0 {
		fs.Attrs = append([]Attr{}, s.Attrs...)
	}
	return fs
}

// SpanStart implements SpanSink: the span joins the open set.
func (f *FlightRecorder) SpanStart(s *Span) {
	fs := snap(s)
	fs.Open = true
	f.mu.Lock()
	f.open[s.ID] = &fs
	f.mu.Unlock()
}

// SpanEvent implements SpanSink: events are counted, not stored — the
// recorder bounds memory by keeping span skeletons only.
func (f *FlightRecorder) SpanEvent(s *Span, _ Event) {
	f.mu.Lock()
	if fs, ok := f.open[s.ID]; ok {
		fs.Events++
	}
	f.mu.Unlock()
}

// readsEventAttrs reports that the recorder never reads event
// attributes.
func (f *FlightRecorder) readsEventAttrs() bool { return false }

// SpanEnd implements SpanSink: the span leaves the open set and enters
// the completed ring, evicting the oldest entry when full.
func (f *FlightRecorder) SpanEnd(s *Span) {
	fs := snap(s) // re-snap: attrs may have grown since start
	fs.Ended = s.Ended
	fs.DurationUS = s.Duration().Microseconds()
	f.mu.Lock()
	if prev, ok := f.open[s.ID]; ok {
		fs.Events = prev.Events
		delete(f.open, s.ID)
	}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, fs)
	} else {
		f.ring[f.next] = fs
		f.next = (f.next + 1) % cap(f.ring)
	}
	f.total++
	f.mu.Unlock()
}

// Snapshot returns the recorder's state: the currently-open spans
// (oldest first), the retained completed spans (oldest first), and the
// number of completed spans evicted from the ring.
func (f *FlightRecorder) Snapshot() (open, completed []FlightSpan, dropped uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fs := range f.open {
		open = append(open, *fs)
	}
	sortFlight(open)
	// The ring is oldest-first from next when full, from 0 otherwise.
	if len(f.ring) == cap(f.ring) && cap(f.ring) > 0 {
		completed = append(completed, f.ring[f.next:]...)
		completed = append(completed, f.ring[:f.next]...)
	} else {
		completed = append(completed, f.ring...)
	}
	dropped = f.total - uint64(len(f.ring))
	return open, completed, dropped
}

// sortFlight orders spans by start time, then ID (IDs are allocated
// monotonically per tracer, so this is stable under equal clocks).
func sortFlight(spans []FlightSpan) {
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Started.Equal(spans[j].Started) {
			return spans[i].Started.Before(spans[j].Started)
		}
		return spans[i].ID < spans[j].ID
	})
}

// WriteJSONL dumps the recorder as one JSON object per line —
// completed spans oldest-first, then open spans marked "open":true —
// the format /spans serves. It returns the first write or encode
// error.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	open, completed, _ := f.Snapshot()
	enc := json.NewEncoder(w)
	for _, fs := range completed {
		if err := enc.Encode(fs); err != nil {
			return err
		}
	}
	for _, fs := range open {
		if err := enc.Encode(fs); err != nil {
			return err
		}
	}
	return nil
}
