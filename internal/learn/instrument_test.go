package learn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// annotationGrid is the target grid for the annotation-coverage tests:
// queries spanning bodyless universals, shared bodies, existential
// conjunctions and multi-head expressions.
var annotationGrid = []struct {
	n      int
	target string
	qhorn1 bool // in the qhorn-1 class too?
}{
	{1, "∃x1", true},
	// x2, x3 unmentioned: role-preserving only (qhorn-1 assumes every
	// variable participates).
	{3, "∃x1", false},
	{3, "∀x1 ∃x2x3", true},
	{4, "∀x1 → x2 ∃x3 → x4", true},
	{6, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6", true},
	{6, "∀x1x4 → x5 ∃x2x3", false},
	{5, "∀x1x2 → x3 ∀x1x2 → x4 ∃x5", false},
	{7, "∃x1x2 → x3 ∃x1x2 → x4 ∀x5 → x6 ∃x7", false},
}

// TestEveryQuestionAnnotatedGrid pins the contract behind the
// explaining interfaces: every membership question either learner
// asks, over a grid of targets, carries a non-empty Phase and Purpose.
func TestEveryQuestionAnnotatedGrid(t *testing.T) {
	for _, tc := range annotationGrid {
		u := boolean.MustUniverse(tc.n)
		target := query.MustParse(u, tc.target)
		check := func(name string, steps []Step, total int) {
			t.Helper()
			if len(steps) != total {
				t.Errorf("%s %q: traced %d steps, stats say %d", name, tc.target, len(steps), total)
			}
			for i, s := range steps {
				if s.Phase == "" {
					t.Errorf("%s %q: step %d has empty Phase (purpose %q)", name, tc.target, i, s.Purpose)
				}
				if s.Purpose == "" {
					t.Errorf("%s %q: step %d has empty Purpose (phase %q)", name, tc.target, i, s.Phase)
				}
			}
		}

		var rpSteps []Step
		learned, rpStats := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving), run.WithSteps(func(s Step) {
			rpSteps = append(rpSteps, s)
		}))
		if !learned.Equivalent(target) {
			t.Errorf("rp %q: learned %s", tc.target, learned)
		}
		check("rp", rpSteps, rpStats.Total())

		if !tc.qhorn1 {
			continue
		}
		var q1Steps []Step
		learned, q1Stats := Run(u, oracle.Target(target), run.WithSteps(func(s Step) {
			q1Steps = append(q1Steps, s)
		}))
		if !learned.Equivalent(target) {
			t.Errorf("qhorn1 %q: learned %s", tc.target, learned)
		}
		check("qhorn1", q1Steps, q1Stats.Total())
	}
}

// TestQhorn1ObservedSpansAndMetrics runs the qhorn-1 learner with the
// full instrumentation bundle and checks the span tree covers the
// paper's phases and the by-phase counters reconcile with the stats.
func TestQhorn1ObservedSpansAndMetrics(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	tree := obs.NewTreeSink()
	tr := obs.NewTracer(tree)
	reg := obs.NewRegistry()
	learned, stats := Run(u, oracle.Target(target), run.WithInstrumentation(Instrumentation{
		Spans:   tr,
		Metrics: reg,
	}))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}

	names := tree.SpanNames()
	for _, want := range []string{"learn/qhorn1", "heads", "bodies", "existential", "find", "findall", "gethead"} {
		if !containsString(names, want) {
			t.Errorf("span %q missing from tree (have %v)", want, names)
		}
	}

	byPhase := map[string]int64{
		"heads":       reg.CounterValue(obs.MetricQuestionsByPhase, "phase", "heads"),
		"bodies":      reg.CounterValue(obs.MetricQuestionsByPhase, "phase", "bodies"),
		"existential": reg.CounterValue(obs.MetricQuestionsByPhase, "phase", "existential"),
	}
	if byPhase["heads"] != int64(stats.HeadQuestions) ||
		byPhase["bodies"] != int64(stats.BodyQuestions) ||
		byPhase["existential"] != int64(stats.ExistentialQuestions) {
		t.Errorf("by-phase counters %v, stats %+v", byPhase, stats)
	}
	if got := reg.SumCounter(obs.MetricQuestionsByPhase); got != int64(stats.Total()) {
		t.Errorf("by-phase sum = %d, stats total = %d", got, stats.Total())
	}

	var b strings.Builder
	tree.Render(&b)
	if !strings.Contains(b.String(), "learn/qhorn1") {
		t.Errorf("rendered tree missing root:\n%s", b.String())
	}
}

// TestRolePreservingObservedSpansAndMetrics does the same for the
// role-preserving learner, including the lattice counters.
func TestRolePreservingObservedSpansAndMetrics(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x4 → x5 ∃x2x3")
	tree := obs.NewTreeSink()
	tr := obs.NewTracer(tree)
	reg := obs.NewRegistry()
	learned, stats := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving), run.WithInstrumentation(Instrumentation{
		Spans:   tr,
		Metrics: reg,
	}))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}

	names := tree.SpanNames()
	for _, want := range []string{"learn/rp", "heads", "bodies", "existential", "lattice-search"} {
		if !containsString(names, want) {
			t.Errorf("span %q missing from tree (have %v)", want, names)
		}
	}
	if got := reg.SumCounter(obs.MetricQuestionsByPhase); got != int64(stats.Total()) {
		t.Errorf("by-phase sum = %d, stats total = %d", got, stats.Total())
	}
	if reg.CounterValue(obs.MetricLatticeVisited) == 0 {
		t.Error("lattice visited counter never incremented")
	}
}

// TestBatchedObservedOmitsPerHeadSpans: a batched observed run steps
// the per-head lattice searches of §3.2.1 in lockstep, so it omits
// their per-head "lattice-search" spans, while the serial run opens one
// per head. Both runs emit the same number of question events. (With
// a single head there is nothing to step in lockstep, so the target
// has two.)
func TestBatchedObservedOmitsPerHeadSpans(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x4 → x5 ∀x2 → x6 ∃x3")
	render := func(extra ...run.Option) (string, int) {
		tree := obs.NewTreeSink()
		reg := obs.NewRegistry()
		opts := append([]run.Option{
			run.WithAlgorithm(run.RolePreserving),
			run.WithInstrumentation(Instrumentation{Spans: obs.NewTracer(tree), Metrics: reg}),
		}, extra...)
		if learned, _ := Run(u, oracle.Target(target), opts...); !learned.Equivalent(target) {
			t.Fatalf("learned %s", learned)
		}
		var b strings.Builder
		tree.Render(&b)
		return b.String(), int(reg.SumCounter(obs.MetricQuestionsByPhase))
	}
	serial, serialQ := render()
	batched, batchedQ := render(run.WithBatch())
	if !strings.Contains(serial, "head=x5") {
		t.Errorf("serial run has no per-head lattice-search span:\n%s", serial)
	}
	if strings.Contains(batched, "head=x") {
		t.Errorf("batched run opened a per-head lattice-search span:\n%s", batched)
	}
	if serialQ != batchedQ {
		t.Errorf("question events: serial %d, batched %d", serialQ, batchedQ)
	}
}

// TestPhaseDurationHistograms checks an observed run feeds the
// engine-wide qhorn_phase_seconds histogram: one observation for the
// root span, at least one per paper phase, and none without metrics.
func TestPhaseDurationHistograms(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	reg := obs.NewRegistry()
	learned, _ := Run(u, oracle.Target(target), run.WithInstrumentation(Instrumentation{Metrics: reg}))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}

	if got := reg.Histogram(obs.MetricPhaseSeconds, obs.LatencyBuckets, "phase", "learn/qhorn1").Count(); got != 1 {
		t.Errorf("root phase observations = %d, want 1", got)
	}
	for _, phase := range []string{"heads", "bodies", "existential"} {
		if got := reg.Histogram(obs.MetricPhaseSeconds, obs.LatencyBuckets, "phase", phase).Count(); got == 0 {
			t.Errorf("phase %q never observed a duration", phase)
		}
	}

	// The role-preserving learner reports under its own root phase.
	reg = obs.NewRegistry()
	rpTarget := query.MustParse(u, "∀x1x4 → x5 ∃x2x3")
	if learned, _ := Run(u, oracle.Target(rpTarget), run.WithAlgorithm(run.RolePreserving), run.WithInstrumentation(Instrumentation{Metrics: reg})); !learned.Equivalent(rpTarget) {
		t.Fatalf("rp learned %s", learned)
	}
	if got := reg.Histogram(obs.MetricPhaseSeconds, obs.LatencyBuckets, "phase", "learn/rp").Count(); got != 1 {
		t.Errorf("rp root phase observations = %d, want 1", got)
	}
}

func containsString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// askedTranscript learns target through Run with a transcript around
// the user, and returns the questions in the order the user saw them.
func askedTranscript(target query.Query, opts ...run.Option) []string {
	rec := oracle.Record(oracle.Target(target))
	Run(target.U, rec, opts...)
	return transcriptOf(rec)
}

// TestInstrumentedAsksBareQuestions pins that the live observability
// plane costs no question: with spans into a flight recorder, a
// metrics registry and the question counter (the plane -obs-addr
// turns on), both learners ask the bare run's questions in the bare
// run's order, serial and batched, on seeded targets at n = 12 and 16.
func TestInstrumentedAsksBareQuestions(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{12, 16} {
		for trial := 0; trial < 3; trial++ {
			targets := []struct {
				alg    run.Algorithm
				target query.Query
			}{
				{run.Qhorn1, query.GenQhorn1(rng, n)},
				{run.RolePreserving, query.GenRolePreserving(rng, n, query.RPOptions{
					Heads: 3, BodiesPerHead: 2, MaxBodySize: 3, Conjs: 2, MaxConjSize: 4,
				})},
			}
			for _, tc := range targets {
				for _, mode := range []struct {
					name string
					opt  run.Option
				}{{"serial", nil}, {"batch", run.WithBatch()}} {
					label := fmt.Sprintf("%s n=%d trial %d %s (%s)", tc.alg, n, trial, mode.name, tc.target)
					bare := askedTranscript(tc.target, run.WithAlgorithm(tc.alg), mode.opt)

					reg := obs.NewRegistry()
					flight := obs.NewFlightRecorder(0)
					instrumented := askedTranscript(tc.target, run.WithAlgorithm(tc.alg), mode.opt,
						run.WithInstrumentation(Instrumentation{Spans: obs.NewTracer(flight), Metrics: reg}),
						run.WithCounter())

					sameTranscript(t, label, bare, instrumented, false)
					if got := reg.CounterValue(obs.MetricQuestions); got != int64(len(instrumented)) {
						t.Errorf("%s: counter saw %d questions, transcript %d", label, got, len(instrumented))
					}
					if _, completed, _ := flight.Snapshot(); len(completed) == 0 {
						t.Errorf("%s: flight recorder holds no spans", label)
					}
				}
			}
		}
	}
}

// attrSink is a span sink that reads event attributes: it counts the
// question events that carry all four annotations.
type attrSink struct{ annotated int }

func (a *attrSink) SpanStart(*obs.Span) {}
func (a *attrSink) SpanEnd(*obs.Span)   {}
func (a *attrSink) SpanEvent(_ *obs.Span, e obs.Event) {
	if e.Name == "question" && len(e.Attrs) == 4 {
		a.annotated++
	}
}

// TestFlightRecorderEventsWithoutAttrs pins that a learn traced only by
// a FlightRecorder, whose question events carry no attributes, records
// the same spans with the same event counts as one whose tracer also
// feeds a sink that reads the attributes, and that the latter sink
// sees every question annotated.
func TestFlightRecorderEventsWithoutAttrs(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	for _, alg := range []run.Algorithm{run.Qhorn1, run.RolePreserving} {
		for _, batch := range []bool{false, true} {
			opts := []run.Option{run.WithAlgorithm(alg)}
			if batch {
				opts = append(opts, run.WithBatch())
			}
			learnTraced := func(sinks ...obs.SpanSink) ([]obs.FlightSpan, run.Stats) {
				fr := obs.NewFlightRecorder(1 << 12)
				_, stats := Run(u, oracle.Target(target), append(opts,
					run.WithInstrumentation(Instrumentation{Spans: obs.NewTracer(append(sinks, fr)...)}))...)
				_, spans, _ := fr.Snapshot()
				return spans, stats
			}
			label := fmt.Sprintf("%v batch=%v", alg, batch)
			bare, stats := learnTraced()
			reader := &attrSink{}
			full, _ := learnTraced(reader)
			if len(bare) != len(full) {
				t.Fatalf("%s: %d spans without attributes, %d with", label, len(bare), len(full))
			}
			var events int64
			for i := range bare {
				if bare[i].Name != full[i].Name || bare[i].Events != full[i].Events {
					t.Fatalf("%s: span %d is %s with %d events, %s with %d with attributes",
						label, i, bare[i].Name, bare[i].Events, full[i].Name, full[i].Events)
				}
				events += bare[i].Events
			}
			if events != int64(stats.Total()) || reader.annotated != stats.Total() {
				t.Fatalf("%s: %d events, %d annotated, %d questions", label, events, reader.annotated, stats.Total())
			}
		}
	}
}
