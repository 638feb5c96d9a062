package verify

// The verify half of the options-matrix differential test: the same
// verification set runs through every engine option combination and
// every named entry point, and all of them must reproduce the plain
// serial run — the same verdict, the same question count, the same
// disagreement list, and the same user-facing question transcript in
// set order (docs/ENGINE.md).

import (
	"fmt"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// verifyMatrixCases pairs a given query with an oracle-backing hidden
// query: one equivalent (clean verdict) and one different (a
// disagreement to find).
func verifyMatrixCases(t *testing.T) []struct {
	name          string
	given, hidden query.Query
} {
	t.Helper()
	u := boolean.MustUniverse(4)
	good := query.MustParse(u, "∀x1 → x2 ∃x3")
	bad := query.MustParse(u, "∀x1 → x3 ∃x3")
	return []struct {
		name          string
		given, hidden query.Query
	}{
		{"equivalent", good, good},
		{"different", good, bad},
	}
}

func transcriptOf(rec *oracle.Transcript) []string {
	var out []string
	for _, e := range rec.Copy() {
		out = append(out, fmt.Sprintf("%s=%v", e.Question.Key(), e.Answer))
	}
	return out
}

func sameResult(t *testing.T, label string, ref, got Result) {
	t.Helper()
	if got.Correct != ref.Correct || got.QuestionsAsked != ref.QuestionsAsked {
		t.Errorf("%s: (correct=%v, %d questions) differs from serial (correct=%v, %d questions)",
			label, got.Correct, got.QuestionsAsked, ref.Correct, ref.QuestionsAsked)
		return
	}
	if len(got.Disagreements) != len(ref.Disagreements) {
		t.Errorf("%s: %d disagreements vs %d serial", label, len(got.Disagreements), len(ref.Disagreements))
		return
	}
	for i := range ref.Disagreements {
		if got.Disagreements[i].Question.Set.Key() != ref.Disagreements[i].Question.Set.Key() {
			t.Errorf("%s: disagreement %d differs from serial", label, i)
			return
		}
	}
}

func sameTranscript(t *testing.T, label string, ref, got []string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Errorf("%s: %d questions vs %d serial", label, len(got), len(ref))
		return
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("%s: question %d is %s, serial asked %s", label, i, got[i], ref[i])
			return
		}
	}
}

// TestVerifyOptionsMatrix: every option combination reproduces the
// serial run on both the clean and the disagreeing case. The
// verification set has a fixed question order, and every mode —
// batched included — asks the user in that order.
func TestVerifyOptionsMatrix(t *testing.T) {
	for _, tc := range verifyMatrixCases(t) {
		vs, err := Build(tc.given)
		if err != nil {
			t.Fatal(err)
		}
		collect := func(opts ...run.Option) ([]string, Result) {
			rec := oracle.Record(oracle.Target(tc.hidden))
			res := vs.RunWith(rec, opts...)
			return transcriptOf(rec), res
		}
		var refTr []string
		var refRes Result
		{
			rec := oracle.Record(oracle.Target(tc.hidden))
			refRes = vs.Run(rec)
			refTr = transcriptOf(rec)
		}
		combos := []struct {
			name string
			opts []run.Option
		}{
			{name: "plain"},
			{name: "batch", opts: []run.Option{run.WithBatch()}},
			{name: "budget", opts: []run.Option{run.WithBudget(refRes.QuestionsAsked)}},
			{name: "counter", opts: []run.Option{run.WithCounter()}},
			{name: "steps", opts: []run.Option{run.WithSteps(func(run.Step) {})}},
			{name: "observed", opts: []run.Option{run.WithInstrumentation(Instrumentation{
				Spans:   obs.NewTracer(obs.NewTreeSink()),
				Metrics: obs.NewRegistry(),
			})}},
		}
		for _, combo := range combos {
			label := tc.name + " " + combo.name
			tr, res := collect(combo.opts...)
			sameResult(t, label, refRes, res)
			sameTranscript(t, label, refTr, tr)
		}
	}
}

// TestVerifyLegacyEntryPointsPinned: the named entry points — Verify,
// Set.Run and Set.RunUntilFirst — reproduce the engine run their
// documentation promises.
func TestVerifyLegacyEntryPointsPinned(t *testing.T) {
	for _, tc := range verifyMatrixCases(t) {
		vs, err := Build(tc.given)
		if err != nil {
			t.Fatal(err)
		}
		ask := func() oracle.Oracle { return oracle.Target(tc.hidden) }
		ref := vs.Run(ask())
		sameResult(t, tc.name+" Set.Run", vs.RunWith(ask()), ref)
		if res, err := Verify(tc.given, ask()); err != nil {
			t.Errorf("%s Verify: %v", tc.name, err)
		} else {
			sameResult(t, tc.name+" Verify", ref, res)
		}
		if res, err := Run(tc.given, ask()); err != nil {
			t.Errorf("%s Run: %v", tc.name, err)
		} else {
			sameResult(t, tc.name+" Run", ref, res)
		}

		// RunUntilFirst pins to the engine's first-disagreement mode.
		first := vs.RunUntilFirst(ask())
		withFirst := vs.RunWith(ask(), run.WithFirstDisagreement())
		sameResult(t, tc.name+" RunUntilFirst", withFirst, first)
		if !ref.Correct && first.QuestionsAsked >= ref.QuestionsAsked && len(vs.Questions) > 1 {
			// A wrong query with a mid-set disagreement must stop early.
			if first.QuestionsAsked == ref.QuestionsAsked && len(first.Disagreements) > 0 &&
				first.Disagreements[0].Question.Set.Key() != vs.Questions[len(vs.Questions)-1].Set.Key() {
				t.Errorf("%s: RunUntilFirst asked the full set (%d questions) past the first disagreement",
					tc.name, first.QuestionsAsked)
			}
		}
	}
}
