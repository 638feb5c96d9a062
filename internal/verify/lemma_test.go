package verify

import (
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// Each test below constructs a (given, intended) pair in the exact
// configuration of one lemma of §4.3 and asserts that the predicted
// question family — and for the N-families the predicted direction —
// surfaces the difference.

func detectors(t *testing.T, given, intended query.Query) map[Kind]bool {
	t.Helper()
	vs := mustBuild(t, given)
	res := vs.RunWith(oracle.Target(intended))
	if res.Correct {
		t.Fatalf("given %s vs intended %s: no disagreement", given, intended)
	}
	kinds := map[Kind]bool{}
	for _, d := range res.Disagreements {
		kinds[d.Question.Kind] = true
	}
	return kinds
}

// Lemma 4.3 case 1: Dg || Di or Dg > Di — the A1 question (an answer
// for qg) is a non-answer for qi.
func TestLemma43Case1A1Detects(t *testing.T) {
	u := boolean.MustUniverse(4)
	// Incomparable dominant conjunction sets.
	given := query.MustParse(u, "∃x1x2")
	intended := query.MustParse(u, "∃x3x4")
	if kinds := detectors(t, given, intended); !kinds[A1] {
		t.Errorf("A1 did not detect incomparable conjunctions: %v", kinds)
	}
	// Dg > Di: the given conjunction is strictly below the intended.
	given = query.MustParse(u, "∃x1")
	intended = query.MustParse(u, "∃x1x2")
	if kinds := detectors(t, given, intended); !kinds[A1] {
		t.Errorf("A1 did not detect Dg > Di: %v", kinds)
	}
}

// Lemma 4.3 case 2: Dg < Di — replacing a distinguishing tuple with
// its children (N1, a non-answer for qg) is an answer for qi.
func TestLemma43Case2N1Detects(t *testing.T) {
	u := boolean.MustUniverse(4)
	given := query.MustParse(u, "∃x1x2x3")
	intended := query.MustParse(u, "∃x1x2") // descendant... ancestor: Di tuple above Dg's
	kinds := detectors(t, given, intended)
	if !kinds[N1] {
		t.Errorf("N1 did not detect Dg < Di: %v", kinds)
	}
}

// Lemma 4.4: ti > tg (the intended body is a strict subset) — A2 (an
// answer for qg) is a non-answer for qi.
func TestLemma44A2Detects(t *testing.T) {
	u := boolean.MustUniverse(4)
	given := query.MustParse(u, "∀x1x2 → x3 ∃x4")
	intended := query.MustParse(u, "∀x1 → x3 ∃x4")
	kinds := detectors(t, given, intended)
	if !kinds[A2] {
		t.Errorf("A2 did not detect the smaller intended body: %v", kinds)
	}
}

// Lemma 4.5: ti < tg (the intended body is a strict superset) — N2
// (a non-answer for qg) is an answer for qi.
func TestLemma45N2Detects(t *testing.T) {
	u := boolean.MustUniverse(4)
	given := query.MustParse(u, "∀x1 → x3 ∃x4")
	intended := query.MustParse(u, "∀x1x2 → x3 ∃x4")
	kinds := detectors(t, given, intended)
	if !kinds[N2] {
		t.Errorf("N2 did not detect the larger intended body: %v", kinds)
	}
}

// Lemma 4.6: the intended query has an extra body M incomparable with
// every given body, with M's guarantee dominated by a given
// existential expression — the A3 search roots catch it.
func TestLemma46A3Detects(t *testing.T) {
	u := boolean.MustUniverse(6)
	// Given: body x3x4 for x5, plus ∃x2x3x4x5 dominating the
	// guarantee. Intended adds ∀x2x3 → x5 (incomparable with x3x4,
	// contained in the conjunction's variables).
	given := query.MustParse(u, "∀x3x4 → x5 ∃x2x3x4 ∃x1")
	intended := query.MustParse(u, "∀x3x4 → x5 ∀x2x3 → x5 ∃x2x3x4 ∃x1")
	kinds := detectors(t, given, intended)
	if !kinds[A3] {
		t.Errorf("A3 did not detect the extra incomparable body: %v", kinds)
	}
}

// Lemma 4.7: a variable that is a head in the intended query but a
// non-head in the given query — A4 catches it.
func TestLemma47A4Detects(t *testing.T) {
	u := boolean.MustUniverse(4)
	given := query.MustParse(u, "∃x1x2 ∃x3 ∃x4")
	intended := query.MustParse(u, "∀x3 ∃x1x2 ∃x4")
	kinds := detectors(t, given, intended)
	if !kinds[A4] {
		t.Errorf("A4 did not detect the new head variable: %v", kinds)
	}
}

// TestVerificationDirections: for N-family disagreements the user
// answers "answer" where qg expects "non-answer", and vice versa for
// A-families — the directions the lemmas predict.
func TestVerificationDirections(t *testing.T) {
	u := boolean.MustUniverse(4)
	given := query.MustParse(u, "∀x1 → x3 ∃x4")
	intended := query.MustParse(u, "∀x1x2 → x3 ∃x4")
	vs := mustBuild(t, given)
	res := vs.RunWith(oracle.Target(intended))
	for _, d := range res.Disagreements {
		switch d.Question.Kind {
		case N1, N2:
			if d.Got != true {
				t.Errorf("%s disagreement should be user-answers-yes, got %v", d.Question.Kind, d.Got)
			}
		default:
			if d.Got != false {
				t.Errorf("%s disagreement should be user-answers-no, got %v", d.Question.Kind, d.Got)
			}
		}
	}
}

// TestQuestionAttribution: the structured Head/Conj fields point at
// the probed expression.
func TestQuestionAttribution(t *testing.T) {
	u := boolean.MustUniverse(6)
	q := query.MustParse(u, "∀x1x4 → x5 ∃x2x3")
	vs := mustBuild(t, q)
	for _, question := range vs.Questions {
		switch question.Kind {
		case A2, N2, A3:
			if question.Head < 0 || question.Head >= u.N() {
				t.Errorf("%s question without head attribution", question.Kind)
			}
		case A1, A4:
			if question.Head != -1 {
				t.Errorf("%s question with spurious head %d", question.Kind, question.Head)
			}
		case N1:
			if question.Conj.IsEmpty() {
				t.Errorf("N1 question without conjunction attribution")
			}
		}
	}
}
