package verify

// The verify half of the options-matrix differential test: the same
// verification set runs through every engine option combination and
// under a question budget around the user, and all of them must
// reproduce the plain serial run — the same verdict, the same question count, the same
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
		type combo struct {
			name string
			opts []run.Option
			wrap func(oracle.Oracle) oracle.Oracle
		}
		collect := func(c combo) ([]string, Result) {
			rec := oracle.Record(oracle.Target(tc.hidden))
			var o oracle.Oracle = rec
			if c.wrap != nil {
				o = c.wrap(o)
			}
			res := vs.RunWith(o, c.opts...)
			return transcriptOf(rec), res
		}
		refTr, refRes := collect(combo{})
		combos := []combo{
			{name: "batch", opts: []run.Option{run.WithBatch()}},
			{name: "budget", wrap: func(o oracle.Oracle) oracle.Oracle { return oracle.WithBudget(o, refRes.QuestionsAsked, nil) }},
			{name: "counter", opts: []run.Option{run.WithCounter()}},
			{name: "steps", opts: []run.Option{run.WithSteps(func(run.Step) {})}},
			{name: "observed", opts: []run.Option{run.WithInstrumentation(Instrumentation{
				Spans:   obs.NewTracer(obs.NewTreeSink()),
				Metrics: obs.NewRegistry(),
			})}},
		}
		for _, c := range combos {
			label := tc.name + " " + c.name
			tr, res := collect(c)
			sameResult(t, label, refRes, res)
			sameTranscript(t, label, refTr, tr)
		}
	}
}
