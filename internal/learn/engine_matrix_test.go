package learn

// The options-matrix differential test: a seeded corpus of queries
// from both classes runs through every meaningful engine option
// combination, and every combination — and every legacy named entry
// point — must reproduce the plain serial run: identical question
// transcripts (as seen by the user's oracle) and identical per-phase
// stats. This is the test that pins the thin wrappers of trace.go,
// naive.go, instrument.go and parallel.go bit-identical to the engine
// (docs/ENGINE.md).

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
			collect := func(extra ...run.Option) ([]string, run.Stats, query.Query) {
				rec := oracle.Record(oracle.Target(h))
				opts := append([]run.Option{run.WithAlgorithm(alg)}, extra...)
				q, st := Run(h.U, rec, opts...)
				return transcriptOf(rec), st, q
			}
			refTr, refStats, refQ := collect()
			combos := []struct {
				name   string
				opts   []run.Option
				sorted bool
			}{
				{name: "batch", opts: []run.Option{run.WithBatch()}, sorted: true},
				{name: "budget", opts: []run.Option{run.WithBudget(refStats.Total())}},
				{name: "counter", opts: []run.Option{run.WithCounter()}},
				{name: "transcript", opts: []run.Option{run.WithTranscript()}},
				{name: "steps", opts: []run.Option{run.WithSteps(func(run.Step) {})}},
				{name: "observed", opts: []run.Option{run.WithInstrumentation(run.Instrumentation{
					Spans:   obs.NewTracer(obs.NewTreeSink()),
					Metrics: obs.NewRegistry(),
				})}},
			}
			for _, combo := range combos {
				label := fmt.Sprintf("%s corpus[%d] %s", alg, qi, combo.name)
				tr, st, q := collect(combo.opts...)
				if st != refStats {
					t.Errorf("%s: stats %+v differ from serial %+v", label, st, refStats)
				}
				if !q.Equivalent(refQ) {
					t.Errorf("%s: learned %s, serial learned %s", label, q, refQ)
				}
				sameTranscript(t, label, refTr, tr, combo.sorted)
			}
		}
	}
}

// TestLegacyEntryPointsPinned: every named entry point is bit-identical
// — same user-facing transcript, same stats — to the engine run with
// the Config its documentation promises.
func TestLegacyEntryPointsPinned(t *testing.T) {
	type variant struct {
		name   string
		opts   []run.Option // the engine side
		legacy func(u boolean.Universe, o oracle.Oracle) (query.Query, run.Stats)
		sorted bool
	}
	qhorn1Variants := []variant{
		{"Qhorn1", nil, func(u boolean.Universe, o oracle.Oracle) (query.Query, run.Stats) {
			q, s := Qhorn1(u, o)
			return q, run.Stats(s)
		}, false},
		{"Qhorn1Naive", []run.Option{run.WithNaiveSearch()}, func(u boolean.Universe, o oracle.Oracle) (query.Query, run.Stats) {
			q, s := Qhorn1Naive(u, o)
			return q, run.Stats(s)
		}, false},
	}
	toStats := func(s RPStats) run.Stats {
		return run.Stats{HeadQuestions: s.HeadQuestions, BodyQuestions: s.UniversalQuestions, ExistentialQuestions: s.ExistentialQuestions}
	}
	ab := Ablations{NoGuaranteeSeeds: true, SerialPrune: true}
	rpVariants := []variant{
		{"RolePreserving", nil, func(u boolean.Universe, o oracle.Oracle) (query.Query, run.Stats) {
			q, s := RolePreserving(u, o)
			return q, toStats(s)
		}, false},
		{"RolePreservingAblated", []run.Option{run.WithAblations(ab)}, func(u boolean.Universe, o oracle.Oracle) (query.Query, run.Stats) {
			q, s := RolePreservingAblated(u, o, ab)
			return q, toStats(s)
		}, false},
	}
	for _, alg := range []run.Algorithm{run.Qhorn1, run.RolePreserving} {
		variants := qhorn1Variants
		if alg == run.RolePreserving {
			variants = rpVariants
		}
		for qi, h := range matrixCorpus(t, alg) {
			for _, v := range variants {
				label := fmt.Sprintf("%s corpus[%d] %s", alg, qi, v.name)
				engineRec := oracle.Record(oracle.Target(h))
				eq, est := Run(h.U, engineRec, append([]run.Option{run.WithAlgorithm(alg)}, v.opts...)...)
				legacyRec := oracle.Record(oracle.Target(h))
				lq, lst := v.legacy(h.U, legacyRec)
				if lst != est {
					t.Errorf("%s: stats %+v differ from engine %+v", label, lst, est)
				}
				if !lq.Equivalent(eq) {
					t.Errorf("%s: learned %s, engine learned %s", label, lq, eq)
				}
				sameTranscript(t, label, transcriptOf(engineRec), transcriptOf(legacyRec), v.sorted)
			}
		}
	}
}

// TestNaiveMatchesEngineOption: the naive baseline through the engine
// asks the same questions as the dedicated entry point even when the
// batch structure is layered on top.
func TestNaiveMatchesEngineOption(t *testing.T) {
	u := boolean.MustUniverse(4)
	h := query.MustParse(u, "∀x1x3 → x2 ∃x4")
	rec1 := oracle.Record(oracle.Target(h))
	q1, s1 := Qhorn1Naive(u, rec1)
	rec2 := oracle.Record(oracle.Target(h))
	q2, s2 := Run(u, rec2, run.WithNaiveSearch())
	if Qhorn1Stats(s2) != s1 {
		t.Errorf("stats %+v vs %+v", s2, s1)
	}
	if !q1.Equivalent(q2) {
		t.Errorf("learned %s vs %s", q1, q2)
	}
	sameTranscript(t, "naive", transcriptOf(rec1), transcriptOf(rec2), false)
}
