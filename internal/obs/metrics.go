package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges and histograms, optionally
// labeled, and renders them in the Prometheus text exposition format.
// All operations are goroutine-safe. A
// nil *Registry hands out discard metrics, so instrumented code never
// branches on whether metrics are enabled.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	help     map[string]string
}

// family groups all label variants of one metric name.
type family struct {
	name string
	typ  string // "counter", "gauge" or "histogram"
	// metrics maps the rendered label string ("" for unlabeled) to
	// the metric instance; order preserves first-registration order
	// for stable exposition.
	metrics map[string]interface{}
	order   []string
	labels  map[string][]Attr
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, help: map[string]string{}}
}

// Describe attaches HELP text to a metric name, rendered in the
// exposition.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// discard instances returned by a nil registry.
var (
	discardCounter   = &Counter{}
	discardGauge     = &Gauge{}
	discardHistogram = &Histogram{}
)

// labelKey renders "k1,v1,k2,v2" pairs canonically (sorted by key).
func labelKey(labels []string) (string, []Attr) {
	if len(labels) == 0 {
		return "", nil
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q (want key/value pairs)", labels))
	}
	attrs := make([]Attr, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		attrs = append(attrs, Attr{Key: labels[i], Value: labels[i+1]})
	}
	slices.SortFunc(attrs, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = fmt.Sprintf("%s=%q", a.Key, a.Value)
	}
	return strings.Join(parts, ","), attrs
}

// lookup returns the metric instance for name+labels, creating it with
// make when absent. It panics when name is already registered with a
// different type — a programming error worth failing loudly on.
func (r *Registry) lookup(name, typ string, labels []string, make func() interface{}) interface{} {
	key, attrs := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, typ: typ, metrics: map[string]interface{}{}, labels: map[string][]Attr{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	m, ok := f.metrics[key]
	if !ok {
		m = make()
		f.metrics[key] = m
		f.order = append(f.order, key)
		f.labels[key] = attrs
	}
	return m
}

// Counter returns the monotonically increasing counter for
// name+labels (alternating key/value), registering it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return discardCounter
	}
	return r.lookup(name, "counter", labels, func() interface{} { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for name+labels, registering it on first
// use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return discardGauge
	}
	return r.lookup(name, "gauge", labels, func() interface{} { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram for name+labels,
// registering it on first use with the given upper bounds (sorted
// ascending; a +Inf bucket is implicit).
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return discardHistogram
	}
	return r.lookup(name, "histogram", labels, func() interface{} {
		h := &Histogram{buckets: append([]float64{}, buckets...)}
		h.counts = make([]uint64, len(h.buckets))
		return h
	}).(*Histogram)
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // non-cumulative per-bucket counts
	sum     float64
	count   uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.sum += v
	h.count++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.mu.Unlock()
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, sum and count.
func (h *Histogram) snapshot() ([]float64, []uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return append([]float64{}, h.buckets...), cum, h.sum, h.count
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation within the bucket containing
// the target rank — the same estimator as Prometheus's
// histogram_quantile. It returns NaN on an empty histogram; samples
// beyond the last finite bucket clamp to that bucket's upper bound
// (the estimator cannot see past its buckets). Use it to report
// p50/p95/p99 ask latency from exit dumps and /progress.
func (h *Histogram) Quantile(q float64) float64 {
	bounds, cum, _, count := h.snapshot()
	return quantile(q, bounds, cum, count)
}

// quantile is the shared bucket-interpolation estimator over a
// cumulative snapshot.
func quantile(q float64, bounds []float64, cum []uint64, count uint64) float64 {
	if count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	for i, ub := range bounds {
		c := float64(cum[i])
		if c < rank {
			continue
		}
		lower, below := 0.0, 0.0
		if i > 0 {
			lower, below = bounds[i-1], float64(cum[i-1])
		}
		inBucket := c - below
		if inBucket == 0 {
			return ub
		}
		return lower + (ub-lower)*((rank-below)/inBucket)
	}
	// The rank falls in the implicit +Inf bucket: clamp to the largest
	// finite bound (or NaN when the histogram has no finite buckets).
	if len(bounds) == 0 {
		return math.NaN()
	}
	return bounds[len(bounds)-1]
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (families sorted by name, label variants in
// first-registration order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		if help, ok := r.help[name]; ok {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.typ)
		for _, key := range f.order {
			switch m := f.metrics[key].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", name, renderLabels(key), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", name, renderLabels(key), formatFloat(m.Value()))
			case *Histogram:
				bounds, cum, sum, count := m.snapshot()
				for i, ub := range bounds {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", name, renderLabels(appendLabel(key, "le", formatFloat(ub))), cum[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", name, renderLabels(appendLabel(key, "le", "+Inf")), count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, renderLabels(key), formatFloat(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, renderLabels(key), count)
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// renderLabels wraps a canonical label key in braces, or returns ""
// for the unlabeled variant.
func renderLabels(key string) string {
	if key == "" {
		return ""
	}
	return "{" + key + "}"
}

// appendLabel extends a canonical label key with one more pair.
func appendLabel(key, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if key == "" {
		return pair
	}
	return key + "," + pair
}

// formatFloat renders a float the Prometheus way: integers bare,
// +Inf literal, otherwise shortest representation.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// CounterValue reads the counter for name+labels without registering
// it; absent counters read 0. Tests and the bench writer use it.
func (r *Registry) CounterValue(name string, labels ...string) int64 {
	if r == nil {
		return 0
	}
	key, _ := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	c, ok := f.metrics[key].(*Counter)
	if !ok {
		return 0
	}
	return c.Value()
}

// SumCounter sums every label variant of the named counter family —
// e.g. total questions across phases.
func (r *Registry) SumCounter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	var total int64
	for _, m := range f.metrics {
		if c, ok := m.(*Counter); ok {
			total += c.Value()
		}
	}
	return total
}

// Point is one metric instance in a registry snapshot: a counter or
// gauge with its value, or a histogram with its cumulative snapshot.
type Point struct {
	// Name is the metric family name.
	Name string `json:"name"`
	// Labels are the instance's label pairs, sorted by key.
	Labels []Attr `json:"labels,omitempty"`
	// Type is "counter", "gauge" or "histogram".
	Type string `json:"type"`
	// Value is the counter or gauge value (0 for histograms).
	Value float64 `json:"value"`
	// Hist is the histogram snapshot (nil for counters and gauges).
	Hist *HistogramSnapshot `json:"hist,omitempty"`
}

// HistogramSnapshot is a consistent point-in-time view of one
// histogram: bucket upper bounds, cumulative counts, sum and count.
type HistogramSnapshot struct {
	Buckets []float64 `json:"buckets"`
	// Cumulative[i] counts samples ≤ Buckets[i]; Count covers the
	// implicit +Inf bucket.
	Cumulative []uint64 `json:"cumulative"`
	Sum        float64  `json:"sum"`
	Count      uint64   `json:"count"`
}

// Quantile estimates the q-quantile of the snapshot (see
// Histogram.Quantile).
func (h *HistogramSnapshot) Quantile(q float64) float64 {
	return quantile(q, h.Buckets, h.Cumulative, h.Count)
}

// Snapshot returns every metric instance in the registry — families
// sorted by name, label variants in first-registration order — as a
// flat point list. The obs server's /progress endpoint is built on it;
// a nil registry snapshots empty.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Point
	for _, name := range names {
		f := r.families[name]
		for _, key := range f.order {
			p := Point{Name: name, Labels: f.labels[key], Type: f.typ}
			switch m := f.metrics[key].(type) {
			case *Counter:
				p.Value = float64(m.Value())
			case *Gauge:
				p.Value = m.Value()
			case *Histogram:
				bounds, cum, sum, count := m.snapshot()
				p.Hist = &HistogramSnapshot{Buckets: bounds, Cumulative: cum, Sum: sum, Count: count}
			}
			out = append(out, p)
		}
	}
	r.mu.Unlock()
	return out
}
