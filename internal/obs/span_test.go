package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock yields deterministic, strictly increasing times.
func fakeClock() func() time.Time {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestSpanHierarchyAndTreeRender(t *testing.T) {
	tree := NewTreeSink()
	tr := NewTracer(tree)
	tr.SetClock(fakeClock())

	root := tr.StartSpan("learn/rp", A("class", "rp"))
	heads := root.StartChild("heads")
	heads.Event("question", A("phase", "heads"))
	heads.Event("question", A("phase", "heads"))
	heads.End()
	bodies := root.StartChild("bodies")
	ls := bodies.StartChild("lattice-search", A("head", "x5"))
	ls.Event("question")
	ls.End()
	bodies.End()
	root.End()

	if got := heads.Events(); got != 2 {
		t.Errorf("heads events = %d, want 2", got)
	}
	if root.Duration() <= 0 {
		t.Error("root duration not positive")
	}

	var b strings.Builder
	tree.Render(&b)
	out := b.String()
	for _, want := range []string{"learn/rp", "├─ heads", "└─ bodies", "   └─ lattice-search", "(2 questions)", "class=rp", "head=x5"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
	names := tree.SpanNames()
	if len(names) != 4 {
		t.Errorf("SpanNames = %v, want 4 names", names)
	}
}

func TestNilTracerAndSpanAreSilent(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("root")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// All operations on nil spans must be no-ops, not panics.
	child := sp.StartChild("x")
	child.Event("question")
	child.Annotate(A("k", "v"))
	child.End()
	sp.End()
	if sp.Duration() != 0 || sp.Events() != 0 {
		t.Error("nil span reported nonzero state")
	}
	tr.AddSink(NewTreeSink())
	tr.SetClock(time.Now)
}

func TestSpanDoubleEndIsIdempotent(t *testing.T) {
	tree := NewTreeSink()
	tr := NewTracer(tree)
	tr.SetClock(fakeClock())
	sp := tr.StartSpan("s")
	sp.End()
	first := sp.Ended
	sp.End()
	if !sp.Ended.Equal(first) {
		t.Error("second End moved the end time")
	}
}

func TestJSONLSinkRecords(t *testing.T) {
	var b strings.Builder
	sink := NewJSONLSink(&b)
	tr := NewTracer(sink)
	tr.SetClock(fakeClock())

	root := tr.StartSpan("verify")
	q := root.StartChild("verify/A1")
	q.Event("question", A("expect", "answer"), A("got", "answer"))
	q.End()
	root.End()
	if sink.Err() != nil {
		t.Fatalf("sink error: %v", sink.Err())
	}

	var types []string
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		var rec map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		types = append(types, rec["type"].(string))
	}
	want := []string{"start", "start", "event", "end", "end"}
	if len(types) != len(want) {
		t.Fatalf("got %d records %v, want %v", len(types), types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("record %d type = %s, want %s", i, types[i], want[i])
		}
	}
	// End records carry duration and parent linkage.
	if !strings.Contains(b.String(), `"duration_us"`) {
		t.Error("no duration_us in end records")
	}
	if !strings.Contains(b.String(), `"name":"verify/A1"`) {
		t.Error("child span name missing")
	}
}

func TestAddSinkSeesLaterSpans(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(fakeClock())
	early := tr.StartSpan("early")
	early.End()
	tree := NewTreeSink()
	tr.AddSink(tree)
	late := tr.StartSpan("late")
	late.End()
	names := tree.SpanNames()
	if len(names) != 1 || names[0] != "late" {
		t.Errorf("late-attached sink saw %v", names)
	}
}

// TestEventAttrsRead pins which tracers report that event attributes
// are read: none for a nil span or for sinks that only count events
// (FlightRecorder, TreeSink), and any tracer with a sink that keeps
// them (JSONLSink, or a sink from outside the package), also one added
// later.
func TestEventAttrsRead(t *testing.T) {
	var nilSpan *Span
	if nilSpan.EventAttrsRead() {
		t.Error("a nil span reports event attributes read")
	}
	counting := NewTracer(NewFlightRecorder(4), NewTreeSink())
	sp := counting.StartSpan("root")
	if sp.EventAttrsRead() {
		t.Error("a flight recorder and a tree report event attributes read")
	}
	counting.AddSink(NewJSONLSink(&strings.Builder{}))
	if !sp.EventAttrsRead() {
		t.Error("an added JSONL sink does not report event attributes read")
	}
	if !NewTracer(collectSink{}).StartSpan("root").EventAttrsRead() {
		t.Error("a sink that does not declare itself does not report event attributes read")
	}
}

// collectSink is a sink that does not say whether it reads event
// attributes.
type collectSink struct{}

func (collectSink) SpanStart(*Span)        {}
func (collectSink) SpanEvent(*Span, Event) {}
func (collectSink) SpanEnd(*Span)          {}
