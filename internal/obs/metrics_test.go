package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("qhorn_questions_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("qhorn_questions_total") != c {
		t.Error("second lookup returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}

	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 105 {
		t.Errorf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestLabeledVariantsAreDistinct(t *testing.T) {
	r := NewRegistry()
	r.Counter("q", "phase", "heads").Add(3)
	r.Counter("q", "phase", "bodies").Add(4)
	if got := r.CounterValue("q", "phase", "heads"); got != 3 {
		t.Errorf("heads = %d", got)
	}
	if got := r.SumCounter("q"); got != 7 {
		t.Errorf("sum = %d, want 7", got)
	}
	if got := r.CounterValue("q", "phase", "existential"); got != 0 {
		t.Errorf("absent variant = %d, want 0", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("gauge lookup of a counter name did not panic")
		}
	}()
	r.Gauge("m")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Describe("qhorn_questions_total", "membership questions asked")
	r.Counter("qhorn_questions_total").Add(12)
	r.Counter("qhorn_questions_by_phase_total", "phase", "heads").Add(5)
	r.Gauge("qhorn_max_tuples").Set(8)
	h := r.Histogram("qhorn_tuples_per_question", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP qhorn_questions_total membership questions asked",
		"# TYPE qhorn_questions_total counter",
		"qhorn_questions_total 12",
		`qhorn_questions_by_phase_total{phase="heads"} 5`,
		"# TYPE qhorn_max_tuples gauge",
		"qhorn_max_tuples 8",
		"# TYPE qhorn_tuples_per_question histogram",
		`qhorn_tuples_per_question_bucket{le="1"} 1`,
		`qhorn_tuples_per_question_bucket{le="2"} 1`,
		`qhorn_tuples_per_question_bucket{le="4"} 2`,
		`qhorn_tuples_per_question_bucket{le="+Inf"} 3`,
		"qhorn_tuples_per_question_sum 13",
		"qhorn_tuples_per_question_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", []float64{1}).Observe(1)
	r.Describe("c", "x")
	if r.Snapshot() != nil {
		t.Error("nil registry returned a non-nil snapshot")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.CounterValue("c") != 0 || r.SumCounter("c") != 0 {
		t.Error("nil registry reported values")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("lat", []float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile is not NaN")
	}
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	cases := []struct{ q, want float64 }{
		{0.125, 0.5}, // half-way into the first bucket [0,1]
		{0.25, 1},    // exactly the first bucket's upper bound
		{0.5, 2},     // exactly the second bucket's upper bound
		{0.75, 4},    // exactly the third bucket's upper bound
		{0.99, 4},    // +Inf bucket clamps to the last finite bound
		{1, 4},
		{-3, 0}, // q clamps into [0,1]
		{7, 4},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(h.Quantile(math.NaN())) {
		t.Error("Quantile(NaN) is not NaN")
	}

	// Uniform interpolation inside one bucket.
	u := NewRegistry().Histogram("u", []float64{10})
	for i := 0; i < 4; i++ {
		u.Observe(5)
	}
	if got := u.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("uniform Quantile(0.5) = %v, want 5", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "phase", "heads").Add(3)
	r.Gauge("a_gauge").Set(2.5)
	h := r.Histogram("c_lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)

	pts := r.Snapshot()
	if len(pts) != 3 {
		t.Fatalf("snapshot has %d points, want 3", len(pts))
	}
	// Families come sorted by name.
	if pts[0].Name != "a_gauge" || pts[1].Name != "b_total" || pts[2].Name != "c_lat" {
		t.Fatalf("snapshot order = %s, %s, %s", pts[0].Name, pts[1].Name, pts[2].Name)
	}
	if pts[0].Type != "gauge" || pts[0].Value != 2.5 {
		t.Errorf("gauge point = %+v", pts[0])
	}
	if pts[1].Type != "counter" || pts[1].Value != 3 || len(pts[1].Labels) != 1 || pts[1].Labels[0].Value != "heads" {
		t.Errorf("counter point = %+v", pts[1])
	}
	hist := pts[2].Hist
	if hist == nil || hist.Count != 2 || hist.Sum != 2 {
		t.Fatalf("histogram snapshot = %+v", hist)
	}
	if got := hist.Quantile(0.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("snapshot Quantile(0.5) = %v, want 1", got)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			phase := []string{"heads", "bodies", "existential"}[i%3]
			for j := 0; j < 500; j++ {
				r.Counter("q", "phase", phase).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{1, 10, 100}).Observe(float64(j))
			}
		}(i)
	}
	wg.Wait()
	if got := r.SumCounter("q"); got != 8*500 {
		t.Errorf("sum = %d, want %d", got, 8*500)
	}
	if r.Histogram("h", []float64{1, 10, 100}).Count() != 8*500 {
		t.Error("histogram lost samples")
	}
	if got := r.Gauge("g").Value(); got != 8*500 {
		t.Errorf("gauge = %v, want %d", got, 8*500)
	}
}
