package run

import (
	"math/rand"
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
	rng := rand.New(rand.NewSource(1))
	steps := func(Step) {}
	reg := obs.NewRegistry()
	c := New(
		WithAlgorithm(RolePreserving),
		WithNaiveSearch(),
		WithAblations(Ablations{NoGuaranteeSeeds: true}),
		WithSteps(steps),
		WithInstrumentation(Instrumentation{Metrics: reg}),
		WithBatch(),
		WithBudget(99),
		WithNoise(0.25, rng),
		WithCounter(),
		WithTranscript(),
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
	if c.Budget != 99 || c.NoiseP != 0.25 || c.NoiseRNG != rng {
		t.Errorf("oracle options not applied: %+v", c)
	}
	if !c.Count || !c.Record || !c.FirstOnly {
		t.Errorf("counter/transcript/first options not applied: %+v", c)
	}
}

// TestWithBatchAlone selects the batch structure and nothing else.
func TestWithBatchAlone(t *testing.T) {
	c := New(WithBatch())
	if !c.Batch || c.Count || c.Budget != 0 {
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
// untouched with no wrappers.
func TestAssembleZeroConfig(t *testing.T) {
	user := oracle.Func(func(boolean.Set) bool { return true })
	st := Config{}.Assemble(user)
	if st.Budget != nil || st.Counter != nil || st.Transcript != nil {
		t.Errorf("zero config grew wrappers: %+v", st)
	}
	if !st.Oracle.Ask(boolean.Set{}) {
		t.Error("zero config changed the oracle's answers")
	}
}

// TestAssembleFullStack: every requested wrapper is present, and the
// counter and transcript face the run while the budget charges the
// user's every answer.
func TestAssembleFullStack(t *testing.T) {
	u := boolean.MustUniverse(3)
	asked := 0
	user := oracle.Func(func(boolean.Set) bool { asked++; return true })
	cfg := New(WithBudget(5), WithCounter(), WithTranscript())
	st := cfg.Assemble(user)
	if st.Budget == nil || st.Counter == nil || st.Transcript == nil {
		t.Fatalf("missing wrappers: %+v", st)
	}

	q := boolean.NewSet(u.All())
	st.Oracle.Ask(q)
	st.Oracle.Ask(q)
	if asked != 2 {
		t.Errorf("user asked %d times, want 2", asked)
	}
	if st.Counter.Questions != 2 {
		t.Errorf("run-facing counter saw %d questions, want 2", st.Counter.Questions)
	}
	if st.Transcript.Len() != 2 {
		t.Errorf("transcript recorded %d questions, want 2", st.Transcript.Len())
	}
	if st.Budget.Remaining() != 3 {
		t.Errorf("budget remaining = %d, want 3", st.Budget.Remaining())
	}
}

// TestAssembleBudgetPanics: exceeding the budget panics with
// oracle.ErrBudget, the engine's advertised failure mode.
func TestAssembleBudgetPanics(t *testing.T) {
	u := boolean.MustUniverse(2)
	user := oracle.Func(func(boolean.Set) bool { return false })
	st := New(WithBudget(1)).Assemble(user)
	st.Oracle.Ask(boolean.NewSet())
	defer func() {
		if recover() == nil {
			t.Error("second question did not panic against budget 1")
		}
	}()
	st.Oracle.Ask(boolean.NewSet(u.All()))
}

// TestAssembleNoise: with p=1 every answer is flipped.
func TestAssembleNoise(t *testing.T) {
	user := oracle.Func(func(boolean.Set) bool { return true })
	st := New(WithNoise(1, rand.New(rand.NewSource(1)))).Assemble(user)
	if st.Oracle.Ask(boolean.Set{}) {
		t.Error("noise p=1 did not flip the answer")
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
