package difffuzz

import (
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// TestEngineMatrixClean: with the options-matrix judge on, every
// engine option combination reproduces the plain serial run on seeded
// random cases — the bit-identity contract of docs/ENGINE.md holds.
func TestEngineMatrixClean(t *testing.T) {
	rep := Run(Config{Seed: 7, Runs: 40, Options: Options{EngineMatrix: true}})
	if len(rep.Disagreements) != 0 {
		for i, d := range rep.Disagreements {
			if i > 5 {
				break
			}
			t.Errorf("disagreement: %s", d)
		}
	}
}

// TestEngineMatrixCountsQuestions: the matrix judge's replays add to
// the case's question total (each combination re-learns the query).
func TestEngineMatrixCountsQuestions(t *testing.T) {
	u := boolean.MustUniverse(3)
	h := query.MustParse(u, "∀x1 → x2 ∃x3")
	plain := CheckCase(Case{Class: ClassRP, Hidden: h}, Options{})
	matrix := CheckCase(Case{Class: ClassRP, Hidden: h}, Options{EngineMatrix: true})
	if len(matrix.Disagreements) != 0 {
		t.Fatalf("unexpected disagreements: %v", matrix.Disagreements)
	}
	if matrix.Questions <= plain.Questions {
		t.Errorf("matrix run asked %d questions, plain %d — replays not counted",
			matrix.Questions, plain.Questions)
	}
}

// TestEngineMatrixVerifySide: the verify-side matrix runs on
// ClassVerify cases and reproduces the serial verdict.
func TestEngineMatrixVerifySide(t *testing.T) {
	u := boolean.MustUniverse(3)
	h := query.MustParse(u, "∀x1 → x2")
	g := query.MustParse(u, "∀x1 → x3")
	res := CheckCase(Case{Class: ClassVerify, Hidden: h, Given: g}, Options{EngineMatrix: true})
	for _, d := range res.Disagreements {
		if d.Kind == KindEngine {
			t.Errorf("engine disagreement on inequivalent given: %s", d)
		}
	}
}

// TestStepsDiff: the divergence formatter pinpoints length and
// first-element differences.
func TestStepsDiff(t *testing.T) {
	a := []engineStep{{"p", "k1", true}, {"p", "k2", false}}
	if d := stepsDiff(a, a[:1]); !strings.Contains(d, "1 questions vs 2 serial") {
		t.Errorf("length diff = %q", d)
	}
	b := []engineStep{{"p", "k1", true}, {"q", "k2", false}}
	if d := stepsDiff(a, b); !strings.Contains(d, "question 1") {
		t.Errorf("element diff = %q", d)
	}
	if d := stepsDiff(a, a); d != "" {
		t.Errorf("identical streams diff = %q", d)
	}
}
