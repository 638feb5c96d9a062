package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// JSONLSink writes the span stream as one JSON object per line:
// {"type":"start"|"event"|"end", …}. The format is append-only and
// replayable, suitable for -trace-out files consumed by external
// tooling.
type JSONLSink struct {
	w   io.Writer
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Err reports the first write or encode error, if any.
func (j *JSONLSink) Err() error { return j.err }

type jsonlRecord struct {
	Type   string `json:"type"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Time   string `json:"time"`
	// DurationUS is the span duration in microseconds (end records).
	DurationUS int64  `json:"duration_us,omitempty"`
	Events     int64  `json:"events,omitempty"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

func (j *JSONLSink) write(r jsonlRecord) {
	if j.err != nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		j.err = err
	}
}

func (j *JSONLSink) SpanStart(s *Span) {
	j.write(jsonlRecord{Type: "start", ID: s.ID, Parent: s.ParentID, Name: s.Name,
		Time: s.Started.Format(time.RFC3339Nano), Attrs: s.Attrs})
}

func (j *JSONLSink) SpanEvent(s *Span, e Event) {
	j.write(jsonlRecord{Type: "event", ID: s.ID, Name: e.Name,
		Time: e.Time.Format(time.RFC3339Nano), Attrs: e.Attrs})
}

func (j *JSONLSink) SpanEnd(s *Span) {
	j.write(jsonlRecord{Type: "end", ID: s.ID, Parent: s.ParentID, Name: s.Name,
		Time:       s.Ended.Format(time.RFC3339Nano),
		DurationUS: s.Duration().Microseconds(), Events: s.events})
}

// TreeSink accumulates the span tree in memory and renders it as a
// human-readable outline — the -trace output the CLIs print at exit.
type TreeSink struct {
	nodes map[uint64]*treeNode
	roots []*treeNode
}

type treeNode struct {
	span     *Span
	children []*treeNode
	// questions counts "question" events; other counts the rest, so
	// e.g. a verification span's "disagreement" events are not
	// mislabeled as questions in the rendering.
	questions int64
	other     int64
	dur       time.Duration
	attrs     []Attr
}

// NewTreeSink returns an empty tree collector.
func NewTreeSink() *TreeSink { return &TreeSink{nodes: map[uint64]*treeNode{}} }

func (t *TreeSink) SpanStart(s *Span) {
	n := &treeNode{span: s}
	t.nodes[s.ID] = n
	if p, ok := t.nodes[s.ParentID]; ok && s.ParentID != 0 {
		p.children = append(p.children, n)
	} else {
		t.roots = append(t.roots, n)
	}
}

func (t *TreeSink) SpanEvent(s *Span, e Event) {
	if n, ok := t.nodes[s.ID]; ok {
		if e.Name == "question" {
			n.questions++
		} else {
			n.other++
		}
	}
}

// readsEventAttrs reports that the tree counts events by name only.
func (t *TreeSink) readsEventAttrs() bool { return false }

func (t *TreeSink) SpanEnd(s *Span) {
	if n, ok := t.nodes[s.ID]; ok {
		n.dur = s.Duration()
		n.attrs = append([]Attr{}, s.Attrs...)
	}
}

// Render writes the collected tree: one line per span with duration,
// question (event) count and attributes, indented with box-drawing
// connectors.
func (t *TreeSink) Render(w io.Writer) {
	for _, r := range t.roots {
		renderNode(w, r, "", "")
	}
}

// SpanNames returns the distinct span names collected, sorted — the
// cheap way for tests to assert phase coverage.
func (t *TreeSink) SpanNames() []string {
	seen := map[string]bool{}
	for _, n := range t.nodes {
		seen[n.span.Name] = true
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func renderNode(w io.Writer, n *treeNode, prefix, childPrefix string) {
	var b strings.Builder
	b.WriteString(prefix)
	b.WriteString(n.span.Name)
	fmt.Fprintf(&b, "  %s", formatDuration(n.dur))
	if n.questions > 0 {
		fmt.Fprintf(&b, "  (%d questions)", n.questions)
	}
	if n.other > 0 {
		fmt.Fprintf(&b, "  (%d events)", n.other)
	}
	for _, a := range n.attrs {
		fmt.Fprintf(&b, "  %s=%s", a.Key, a.Value)
	}
	fmt.Fprintln(w, b.String())
	for i, c := range n.children {
		if i == len(n.children)-1 {
			renderNode(w, c, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			renderNode(w, c, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// formatDuration renders a duration compactly at µs resolution.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
