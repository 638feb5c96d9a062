package difffuzz

import (
	"path/filepath"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// TestKernelJudgeCorpusReplay replays every curated repro through the
// compiled-vs-interpreted kernel judge: no corpus query may separate
// the two evaluators, directly (KernelWitness) or through the full
// battery (no KindKernel disagreement).
func TestKernelJudgeCorpusReplay(t *testing.T) {
	cases, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("testdata/corpus is empty — seed corpus missing")
	}
	for _, c := range cases {
		queries := []query.Query{c.Hidden}
		if c.Class == ClassVerify {
			queries = append(queries, c.Given)
		}
		for _, q := range queries {
			if w, found := KernelWitness(q, Options{}); found {
				t.Errorf("case %s: kernel witness %s on %s", c, w.Format(q.U), q)
			}
		}
		res := CheckCase(c, Options{})
		for _, d := range res.Disagreements {
			if d.Kind == KindKernel {
				t.Errorf("case %s: %s", c, d)
			}
		}
	}
}

// TestKernelJudgeSeededRuns is the in-repo slice of the CI gate: a
// seeded fuzz sweep during which the always-on kernel judge sees every
// generated and learned query. CI runs the same sweep at ≥500 runs.
func TestKernelJudgeSeededRuns(t *testing.T) {
	runs := 60
	if testing.Short() {
		runs = 15
	}
	rep := Run(Config{Seed: 99, Runs: runs})
	for _, d := range rep.Disagreements {
		if d.Kind == KindKernel {
			t.Errorf("%s", d)
		}
	}
	if len(rep.Disagreements) != 0 {
		t.Errorf("fuzz run not clean: %s", rep.Summary())
	}
}

// TestKernelWitnessDeterministic: KernelWitness is a pure function of
// the query — the minimizer and the corpus depend on it.
func TestKernelWitnessDeterministic(t *testing.T) {
	u := boolean.MustUniverse(9)
	q := query.MustParse(u, "∀x1x2 → x8 ∀x3 → x9 ∃x4x5 ∃x5x6x7")
	w1, f1 := KernelWitness(q, Options{})
	w2, f2 := KernelWitness(q, Options{})
	if f1 != f2 || (f1 && w1.Key() != w2.Key()) {
		t.Fatalf("KernelWitness not deterministic: (%v,%v) vs (%v,%v)", w1, f1, w2, f2)
	}
	if f1 {
		t.Fatalf("kernel disagrees with interpreter on %s: witness %s", q, w1.Format(u))
	}
}
