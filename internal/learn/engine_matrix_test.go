package learn

// The options-matrix differential test: a seeded corpus of queries
// from both classes runs through every meaningful engine option
// combination and through the oracle wrappers a caller puts around the
// user (a budget, a transcript), and every combination must reproduce
// the plain serial run: identical question transcripts (as seen by the
// user's oracle) and identical per-phase stats (docs/ENGINE.md).

import (
	"fmt"
	"sort"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// matrixCorpus is the seeded corpus: hand-picked shapes exercising
// every phase (heads, bodies, existentials, guarantee clauses) on two
// universe sizes.
func matrixCorpus(t *testing.T, alg run.Algorithm) []query.Query {
	t.Helper()
	u4 := boolean.MustUniverse(4)
	u6 := boolean.MustUniverse(6)
	qhorn1 := []query.Query{
		query.MustParse(u4, "∀x1 → x2"),
		query.MustParse(u4, "∀x1x3 → x2 ∃x4"),
		query.MustParse(u4, "∃x1x2 ∃x3"),
		query.MustParse(u6, "∀x1x2 → x3 ∀x4 → x5 ∃x6"),
		query.MustParse(u6, "∃x1x2x3 → x4"),
	}
	rp := []query.Query{
		query.MustParse(u4, "∀x1 → x2 ∀x3 → x2"),
		query.MustParse(u4, "∀x1 → x2 ∃x3x4"),
		query.MustParse(u4, "∃x1 ∃x2x3"),
		query.MustParse(u6, "∀x1 → x2 ∀x1 → x4 ∃x5"),
		query.MustParse(u6, "∀x2 → x1 ∀x3 → x1 ∃x2x5"),
	}
	if alg == run.RolePreserving {
		return rp
	}
	return qhorn1
}

// transcriptOf renders a user-facing transcript comparably.
func transcriptOf(rec *oracle.Transcript) []string {
	var out []string
	for _, e := range rec.Copy() {
		out = append(out, fmt.Sprintf("%s=%v", e.Question.Key(), e.Answer))
	}
	return out
}

// sameTranscript compares two transcripts, optionally up to order —
// batched runs interleave independent question streams into waves, so
// the question multiset is their invariant (docs/ENGINE.md).
func sameTranscript(t *testing.T, label string, ref, got []string, sorted bool) {
	t.Helper()
	if sorted {
		ref, got = append([]string(nil), ref...), append([]string(nil), got...)
		sort.Strings(ref)
		sort.Strings(got)
	}
	if len(ref) != len(got) {
		t.Errorf("%s: %d questions vs %d in the reference run", label, len(got), len(ref))
		return
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("%s: question %d is %s, the reference run asked %s", label, i, got[i], ref[i])
			return
		}
	}
}

// TestEngineOptionsMatrix: every option combination reproduces the
// plain serial engine run on the corpus.
func TestEngineOptionsMatrix(t *testing.T) {
	for _, alg := range []run.Algorithm{run.Qhorn1, run.RolePreserving} {
		for qi, h := range matrixCorpus(t, alg) {
			type combo struct {
				name   string
				opts   []run.Option
				wrap   func(oracle.Oracle) oracle.Oracle
				sorted bool
			}
			collect := func(c combo) ([]string, run.Stats, query.Query) {
				rec := oracle.Record(oracle.Target(h))
				var o oracle.Oracle = rec
				if c.wrap != nil {
					o = c.wrap(o)
				}
				q, st := Run(h.U, o, append([]run.Option{run.WithAlgorithm(alg)}, c.opts...)...)
				return transcriptOf(rec), st, q
			}
			refTr, refStats, refQ := collect(combo{})
			combos := []combo{
				{name: "batch", opts: []run.Option{run.WithBatch()}, sorted: true},
				{name: "budget", wrap: func(o oracle.Oracle) oracle.Oracle { return oracle.WithBudget(o, refStats.Total(), nil) }},
				{name: "counter", opts: []run.Option{run.WithCounter()}},
				{name: "transcript", wrap: func(o oracle.Oracle) oracle.Oracle { return oracle.Record(o) }},
				{name: "steps", opts: []run.Option{run.WithSteps(func(run.Step) {})}},
				{name: "observed", opts: []run.Option{run.WithInstrumentation(run.Instrumentation{
					Spans:   obs.NewTracer(obs.NewTreeSink()),
					Metrics: obs.NewRegistry(),
				})}},
			}
			for _, c := range combos {
				label := fmt.Sprintf("%s corpus[%d] %s", alg, qi, c.name)
				tr, st, q := collect(c)
				if st != refStats {
					t.Errorf("%s: stats %+v differ from serial %+v", label, st, refStats)
				}
				if !q.Equivalent(refQ) {
					t.Errorf("%s: learned %s, serial learned %s", label, q, refQ)
				}
				sameTranscript(t, label, refTr, tr, c.sorted)
			}
		}
	}
}
