package run

import (
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
)

func TestAlgorithmString(t *testing.T) {
	if got := Qhorn1.String(); got != "qhorn1" {
		t.Errorf("Qhorn1.String() = %q", got)
	}
	if got := RolePreserving.String(); got != "rp" {
		t.Errorf("RolePreserving.String() = %q", got)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algorithm
	}{
		{"qhorn1", Qhorn1},
		{"rp", RolePreserving},
		{"role-preserving", RolePreserving},
	} {
		got, err := ParseAlgorithm(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil || !strings.Contains(err.Error(), "unknown class") {
		t.Errorf("ParseAlgorithm(bogus) err = %v", err)
	}
}

// TestNewComposesOptions: every option lands on its Config field, and
// nil options are skipped.
func TestNewComposesOptions(t *testing.T) {
	steps := func(Step) {}
	reg := obs.NewRegistry()
	c := New(
		WithAlgorithm(RolePreserving),
		WithNaiveSearch(),
		WithAblations(Ablations{NoGuaranteeSeeds: true}),
		WithSteps(steps),
		WithInstrumentation(Instrumentation{Metrics: reg}),
		WithBatch(),
		WithCounter(),
		WithFirstDisagreement(),
		nil,
	)
	if c.Algorithm != RolePreserving || !c.Naive || !c.Ablations.NoGuaranteeSeeds {
		t.Errorf("algorithm options not applied: %+v", c)
	}
	if c.Ins.Steps == nil || c.Ins.Metrics != reg {
		t.Errorf("instrumentation options not merged: %+v", c.Ins)
	}
	if !c.Batch {
		t.Errorf("WithBatch(): Batch=%v", c.Batch)
	}
	if !c.Count || !c.FirstOnly {
		t.Errorf("counter/first options not applied: %+v", c)
	}
}

// TestWithBatchAlone selects the batch structure and nothing else.
func TestWithBatchAlone(t *testing.T) {
	c := New(WithBatch())
	if !c.Batch || c.Count || c.FirstOnly {
		t.Errorf("WithBatch() = %+v", c)
	}
}

// TestInstrumentationMergeOrder: WithSteps and WithInstrumentation
// overlay non-nil hooks in either order without clobbering the rest.
func TestInstrumentationMergeOrder(t *testing.T) {
	reg := obs.NewRegistry()
	steps := func(Step) {}
	a := New(WithSteps(steps), WithInstrumentation(Instrumentation{Metrics: reg}))
	if a.Ins.Steps == nil || a.Ins.Metrics != reg {
		t.Errorf("steps-then-ins lost a hook: %+v", a.Ins)
	}
	b := New(WithInstrumentation(Instrumentation{Metrics: reg}), WithSteps(steps))
	if b.Ins.Steps == nil || b.Ins.Metrics != reg {
		t.Errorf("ins-then-steps lost a hook: %+v", b.Ins)
	}
}

// TestWithObsServer: the option merges the server's tracer and
// registry into the run's instrumentation, and a nil server is a
// skipped nil option.
func TestWithObsServer(t *testing.T) {
	srv := obs.NewServer(obs.NewRegistry(), nil, obs.NewFlightRecorder(8))
	c := New(WithObsServer(srv))
	if c.Ins.Spans != srv.SpanTracer() {
		t.Error("server tracer not merged into Config.Ins.Spans")
	}
	if c.Ins.Metrics != srv.Registry() {
		t.Error("server registry not merged into Config.Ins.Metrics")
	}
	// Composes with other hooks rather than clobbering them.
	steps := func(Step) {}
	c = New(WithSteps(steps), WithObsServer(srv))
	if c.Ins.Steps == nil || c.Ins.Metrics != srv.Registry() {
		t.Errorf("WithObsServer clobbered hooks: %+v", c.Ins)
	}
	if c := New(WithObsServer(nil)); c.Ins.Spans != nil || c.Ins.Metrics != nil {
		t.Errorf("nil server attached instrumentation: %+v", c.Ins)
	}
}

// TestAssembleZeroConfig: a zero Config returns the user's oracle
// untouched.
func TestAssembleZeroConfig(t *testing.T) {
	user := oracle.Func(func(boolean.Set) bool { return true })
	o := Config{}.Assemble(user)
	if _, wrapped := o.(*oracle.Counter); wrapped {
		t.Error("zero config wrapped a counter")
	}
	if !o.Ask(boolean.Set{}) {
		t.Error("zero config changed the oracle's answers")
	}
}

// TestAssembleCounter: WithCounter wraps a run-facing counter that
// sees every question, mirrors into the run's registry and passes the
// user's answers through.
func TestAssembleCounter(t *testing.T) {
	u := boolean.MustUniverse(3)
	asked := 0
	user := oracle.Func(func(boolean.Set) bool { asked++; return true })
	reg := obs.NewRegistry()
	o := New(WithCounter(), WithInstrumentation(Instrumentation{Metrics: reg})).Assemble(user)
	c, ok := o.(*oracle.Counter)
	if !ok {
		t.Fatalf("WithCounter assembled %T, want *oracle.Counter", o)
	}
	q := boolean.NewSet(u.All())
	if !o.Ask(q) || !o.Ask(q) {
		t.Error("counter changed the user's answers")
	}
	if asked != 2 || c.Questions != 2 {
		t.Errorf("user asked %d times, counter saw %d questions; want 2 and 2", asked, c.Questions)
	}
	if got := reg.CounterValue(obs.MetricQuestions); got != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricQuestions, got)
	}
}

// TestStatsTotal sums the phases.
func TestStatsTotal(t *testing.T) {
	s := Stats{HeadQuestions: 1, BodyQuestions: 2, ExistentialQuestions: 4}
	if s.Total() != 7 {
		t.Errorf("Total() = %d", s.Total())
	}
}

// TestFromFlags: the CLI bundle becomes instrumentation + counter and
// leaves the question structure serial.
func TestFromFlags(t *testing.T) {
	var f obs.Flags
	s, err := f.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := New(FromFlags(s)...)
	if !c.Count {
		t.Error("FromFlags dropped the counter")
	}
	if c.Ins.Metrics != s.Metrics {
		t.Error("FromFlags dropped the metrics registry")
	}
	if c.Batch {
		t.Errorf("CLI flags selected the batch structure: %+v", c)
	}
}
