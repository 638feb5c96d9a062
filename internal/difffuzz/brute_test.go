package difffuzz

import (
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// TestBruteJudgeExhaustiveRange: universes up to BruteVars (default 4,
// the new exhaustive ceiling) run the exhaustive brute judge, cleanly
// and without the sampled marker.
func TestBruteJudgeExhaustiveRange(t *testing.T) {
	for _, src := range []string{
		"∀x1 → x2",
		"∀x1 → x2 ∀x3 → x4 ∃x2x3",
		"∃x1x2 ∃x3x4",
	} {
		u := boolean.MustUniverse(4)
		c := Case{Class: ClassRP, Hidden: query.MustParse(u, src)}
		res := CheckCase(c, Options{})
		if !res.BruteChecked || res.BruteSampled {
			t.Errorf("%s: BruteChecked=%v BruteSampled=%v, want exhaustive check", src, res.BruteChecked, res.BruteSampled)
		}
		if len(res.Disagreements) != 0 {
			t.Errorf("%s: unexpected disagreements: %v", src, res.Disagreements)
		}
	}
}

// TestBruteJudgeSampledRange: n=5 sits past the exhaustive ceiling but
// inside BruteSampleVars, so the sampled judge runs: seeded candidate
// and object samples, hidden guaranteed in the pool, no disagreement on
// a correct learner.
func TestBruteJudgeSampledRange(t *testing.T) {
	for _, src := range []string{
		"∀x1 → x2 ∃x3x4x5",
		"∀x1x2 → x3 ∀x4 → x5",
		"∃x1 ∃x2x3 ∃x4x5",
	} {
		u := boolean.MustUniverse(5)
		c := Case{Class: ClassRP, Hidden: query.MustParse(u, src)}
		res := CheckCase(c, Options{})
		if !res.BruteChecked || !res.BruteSampled {
			t.Errorf("%s: BruteChecked=%v BruteSampled=%v, want sampled check", src, res.BruteChecked, res.BruteSampled)
		}
		if len(res.Disagreements) != 0 {
			t.Errorf("%s: unexpected disagreements: %v", src, res.Disagreements)
		}
	}
}

// TestBruteJudgeDisabled: negative settings switch both brute judges
// off even on tiny universes.
func TestBruteJudgeDisabled(t *testing.T) {
	u := boolean.MustUniverse(2)
	c := Case{Class: ClassRP, Hidden: query.MustParse(u, "∀x1 → x2")}
	res := CheckCase(c, Options{BruteVars: -1, BruteSampleVars: -1})
	if res.BruteChecked {
		t.Error("BruteChecked with both brute judges disabled")
	}
}

// TestBruteMatrixForCached: the exhaustive judge's matrix is built once
// per universe and shared by later calls.
func TestBruteMatrixForCached(t *testing.T) {
	u := boolean.MustUniverse(3)
	m1 := bruteMatrixFor(u)
	m2 := bruteMatrixFor(u)
	if m1 != m2 {
		t.Error("bruteMatrixFor rebuilt a cached matrix")
	}
	if m4 := bruteMatrixFor(boolean.MustUniverse(2)); m4 == m1 {
		t.Error("distinct universes share one cache entry")
	}
}

// TestBruteSampledDeterministic: the sampled judge is a pure function
// of the case — the property the minimizer depends on.
func TestBruteSampledDeterministic(t *testing.T) {
	u := boolean.MustUniverse(5)
	c := Case{Class: ClassRP, Hidden: query.MustParse(u, "∀x1 → x2 ∃x3x4")}
	a := CheckCase(c, Options{})
	b := CheckCase(c, Options{})
	if a.Questions != b.Questions || len(a.Disagreements) != len(b.Disagreements) {
		t.Errorf("sampled judge not deterministic: %+v vs %+v", a, b)
	}
	if !a.BruteSampled || !b.BruteSampled {
		t.Error("sampled judge did not run")
	}
}
