package verify_test

import (
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/verify"
)

// TestRunObservedCoversEveryFamily pins the span and metric shape of
// an observed verification run: one child span per question named
// after its family, and kind-labeled counters summing to the set size.
func TestRunObservedCoversEveryFamily(t *testing.T) {
	u := boolean.MustUniverse(6)
	qg := query.MustParse(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	vs, err := verify.Build(qg)
	if err != nil {
		t.Fatal(err)
	}
	tree := obs.NewTreeSink()
	tr := obs.NewTracer(tree)
	reg := obs.NewRegistry()

	res := vs.RunWith(oracle.Target(qg), run.WithInstrumentation(verify.Instrumentation{Spans: tr, Metrics: reg}))
	if !res.Correct {
		t.Fatalf("self-verification disagreed: %+v", res.Disagreements)
	}

	names := tree.SpanNames()
	if !contains(names, "verify") {
		t.Errorf("no root verify span (have %v)", names)
	}
	kinds := map[verify.Kind]bool{}
	for _, q := range vs.Questions {
		kinds[q.Kind] = true
	}
	for k := range kinds {
		if !contains(names, "verify/"+string(k)) {
			t.Errorf("span verify/%s missing (have %v)", k, names)
		}
	}
	if got := reg.SumCounter(obs.MetricVerifyQuestions); got != int64(len(vs.Questions)) {
		t.Errorf("%s sum = %d, want %d", obs.MetricVerifyQuestions, got, len(vs.Questions))
	}
	if got := reg.SumCounter(obs.MetricVerifyDisagreements); got != 0 {
		t.Errorf("%s sum = %d, want 0", obs.MetricVerifyDisagreements, got)
	}
}

// TestRunObservedCountsDisagreements checks the disagreement counter
// and event against a user whose intent differs from the given query.
func TestRunObservedCountsDisagreements(t *testing.T) {
	u := boolean.MustUniverse(4)
	given := query.MustParse(u, "∀x1 → x2 ∃x3x4")
	intent := query.MustParse(u, "∀x1 → x2 ∃x3 ∃x4")
	vs, err := verify.Build(given)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res := vs.RunWith(oracle.Target(intent), run.WithInstrumentation(verify.Instrumentation{Metrics: reg}))
	if res.Correct {
		t.Fatal("distinct queries verified as correct")
	}
	if got := reg.SumCounter(obs.MetricVerifyDisagreements); got != int64(len(res.Disagreements)) {
		t.Errorf("disagreement counter = %d, result lists %d", got, len(res.Disagreements))
	}
	if got := reg.SumCounter(obs.MetricVerifyQuestions); got != int64(res.QuestionsAsked) {
		t.Errorf("question counter = %d, asked %d", got, res.QuestionsAsked)
	}
}

// TestRunPhaseDurationHistograms checks instrumented verification —
// serial and batch — feeds qhorn_phase_seconds: one observation for
// the "verify" root and one "verify/<Kind>" observation per question.
// The batched root span says so with a "mode: batch" attribute; the
// serial one carries no mode.
func TestRunPhaseDurationHistograms(t *testing.T) {
	u := boolean.MustUniverse(6)
	qg := query.MustParse(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	vs, err := verify.Build(qg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name     string
		opts     []run.Option
		spanMode string
	}{
		{"serial", nil, ""},
		{"batch", []run.Option{run.WithBatch()}, "batch"},
	} {
		reg := obs.NewRegistry()
		flight := obs.NewFlightRecorder(0)
		opts := append([]run.Option{run.WithInstrumentation(run.Instrumentation{Spans: obs.NewTracer(flight), Metrics: reg})}, mode.opts...)
		res := vs.RunWith(oracle.Target(qg), opts...)
		if !res.Correct {
			t.Fatalf("%s: self-verification disagreed", mode.name)
		}
		_, completed, _ := flight.Snapshot()
		roots := 0
		for _, sp := range completed {
			if sp.Name != "verify" {
				continue
			}
			roots++
			got := ""
			for _, a := range sp.Attrs {
				if a.Key == "mode" {
					got = a.Value
				}
			}
			if got != mode.spanMode {
				t.Errorf("%s: verify span mode = %q, want %q", mode.name, got, mode.spanMode)
			}
		}
		if roots != 1 {
			t.Errorf("%s: %d verify root spans, want 1", mode.name, roots)
		}
		if got := reg.Histogram(obs.MetricPhaseSeconds, obs.LatencyBuckets, "phase", "verify").Count(); got != 1 {
			t.Errorf("%s: verify root observations = %d, want 1", mode.name, got)
		}
		var perKind uint64
		for _, q := range vs.Questions {
			perKind = 0
			for _, other := range vs.Questions {
				if other.Kind == q.Kind {
					perKind++
				}
			}
			got := reg.Histogram(obs.MetricPhaseSeconds, obs.LatencyBuckets, "phase", "verify/"+string(q.Kind)).Count()
			if got != perKind {
				t.Errorf("%s: verify/%s observations = %d, want %d", mode.name, q.Kind, got, perKind)
			}
		}
	}
}

// TestRunObservedNilHooks checks nil tracer and registry are silent.
func TestRunObservedNilHooks(t *testing.T) {
	u := boolean.MustUniverse(3)
	qg := query.MustParse(u, "∀x1 → x2 ∃x3")
	res, err := verify.Run(qg, oracle.Target(qg), run.WithInstrumentation(verify.Instrumentation{}))
	if err != nil || !res.Correct {
		t.Fatalf("nil hooks broke verification: %v %+v", err, res)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
