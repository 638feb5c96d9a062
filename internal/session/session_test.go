package session

import (
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

func TestSessionRecordsAndMemoizes(t *testing.T) {
	u := boolean.MustUniverse(3)
	target := query.MustParse(u, "∃x1")
	c := oracle.Count(oracle.Target(target), nil)
	s := New(c)
	q := boolean.MustParseSet(u, "{100}")
	if !s.Ask(q) || !s.Ask(q) {
		t.Fatal("wrong answers")
	}
	if c.Questions != 1 {
		t.Fatalf("user asked %d times, want 1", c.Questions)
	}
	if s.Len() != 1 || s.LiveQuestions != 1 {
		t.Fatalf("history len=%d live=%d", s.Len(), s.LiveQuestions)
	}
	e := s.Entries()
	if len(e) != 1 || !e[0].Answer || e[0].Amended {
		t.Fatalf("entries = %+v", e)
	}
}

func TestAmendAndReplay(t *testing.T) {
	// The §5 scenario: the user misanswers one question, the learner
	// converges to the wrong query; the user reviews the history,
	// flips the mistake, and the re-run recovers the target while
	// replaying everything already answered for free.
	u := boolean.MustUniverse(4)
	target := query.MustParse(u, "∀x1 → x2 ∃x3 ∃x4")
	truth := oracle.Target(target)

	// A user who lies on exactly the 3rd distinct question.
	asked := 0
	liar := oracle.Func(func(q boolean.Set) bool {
		asked++
		a := truth.Ask(q)
		if asked == 3 {
			return !a
		}
		return a
	})

	s := New(liar)
	wrong, _ := learn.Run(u, s, run.WithAlgorithm(run.RolePreserving))
	if wrong.Equivalent(target) {
		t.Skip("lie happened to be harmless for this target")
	}

	// The user reviews the history and spots the bad answer.
	bad := -1
	for i, e := range s.Entries() {
		if truth.Ask(e.Question) != e.Answer {
			bad = i
		}
	}
	if bad < 0 {
		t.Fatal("no bad answer in history")
	}
	if err := s.Amend(bad); err != nil {
		t.Fatal(err)
	}
	if !s.Entries()[bad].Amended {
		t.Fatal("amendment not marked")
	}

	s.ResetRun()
	relearned, _ := learn.Run(u, s, run.WithAlgorithm(run.RolePreserving))
	if !relearned.Equivalent(target) {
		t.Fatalf("after amendment learned %s, want %s", relearned, target)
	}
	if s.LiveQuestions >= s.Len() {
		t.Fatalf("re-run asked %d live questions with %d on record: no replay benefit",
			s.LiveQuestions, s.Len())
	}
}

func TestAmendRandomizedRecovery(t *testing.T) {
	// Property: for random targets and a single random lie, amending
	// the lie always recovers the target.
	rng := rand.New(rand.NewSource(61))
	recovered := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		n := 3 + rng.Intn(5)
		target := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads: 1, BodiesPerHead: 1, MaxBodySize: 2, Conjs: 2, MaxConjSize: 3,
		})
		truth := oracle.Target(target)
		lieAt := 1 + rng.Intn(8)
		asked := 0
		liar := oracle.Func(func(q boolean.Set) bool {
			asked++
			a := truth.Ask(q)
			if asked == lieAt {
				return !a
			}
			return a
		})
		s := New(liar)
		learn.Run(target.U, s, run.WithAlgorithm(run.RolePreserving))
		// Fix every lie (there is at most one distinct question lied
		// about, but the same wrong answer may be memoized).
		for j, e := range s.Entries() {
			if truth.Ask(e.Question) != e.Answer {
				if err := s.Amend(j); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.ResetRun()
		relearned, _ := learn.Run(target.U, s, run.WithAlgorithm(run.RolePreserving))
		if relearned.Equivalent(target) {
			recovered++
		} else {
			t.Errorf("trial %d: target %s relearned as %s", i, target, relearned)
		}
	}
	if recovered != trials {
		t.Errorf("recovered %d/%d", recovered, trials)
	}
}

func TestAmendErrors(t *testing.T) {
	s := New(oracle.Func(func(boolean.Set) bool { return true }))
	if err := s.Amend(0); err == nil {
		t.Error("Amend on empty history succeeded")
	}
	if err := s.AmendQuestion(boolean.NewSet()); err == nil {
		t.Error("AmendQuestion on unknown question succeeded")
	}
	s.Ask(boolean.NewSet(boolean.FromVars(0)))
	if err := s.Amend(1); err == nil {
		t.Error("Amend out of range succeeded")
	}
	if err := s.AmendQuestion(boolean.NewSet(boolean.FromVars(0))); err != nil {
		t.Error(err)
	}
	if s.Entries()[0].Answer {
		t.Error("AmendQuestion did not flip")
	}
}

func TestForget(t *testing.T) {
	u := boolean.MustUniverse(2)
	c := oracle.Count(oracle.Target(query.MustParse(u, "∃x1")), nil)
	s := New(c)
	q1 := boolean.MustParseSet(u, "{10}")
	q2 := boolean.MustParseSet(u, "{01}")
	s.Ask(q1)
	s.Ask(q2)
	if err := s.Forget(1); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("len after Forget = %d", s.Len())
	}
	// q2 must be re-asked; q1 replays.
	s.Ask(q1)
	s.Ask(q2)
	if c.Questions != 3 {
		t.Fatalf("user asked %d times, want 3", c.Questions)
	}
	if err := s.Forget(5); err == nil {
		t.Error("Forget out of range succeeded")
	}
}

func TestSessionPersistence(t *testing.T) {
	u := boolean.MustUniverse(4)
	target := query.MustParse(u, "∀x1 → x2 ∃x3x4")
	truth := oracle.Target(target)

	// First sitting: learn, then save.
	s1 := New(oracle.Count(truth, nil))
	first, _ := learn.Run(u, s1, run.WithAlgorithm(run.RolePreserving))
	if !first.Equivalent(target) {
		t.Fatal("first sitting failed")
	}
	data, err := s1.EncodeJSON(u)
	if err != nil {
		t.Fatal(err)
	}

	// Second sitting: restore over a counting oracle; re-learning must
	// cost zero live questions.
	c := oracle.Count(truth, nil)
	s2, u2, err := DecodeJSON(data, c)
	if err != nil {
		t.Fatal(err)
	}
	if u2.N() != 4 || s2.Len() != s1.Len() {
		t.Fatalf("restored: n=%d len=%d", u2.N(), s2.Len())
	}
	again, _ := learn.Run(u2, s2, run.WithAlgorithm(run.RolePreserving))
	if !again.Equivalent(target) {
		t.Fatal("restored session learned differently")
	}
	if c.Questions != 0 {
		t.Fatalf("restored session asked %d live questions", c.Questions)
	}
	// Amendments survive the round trip.
	if err := s1.Amend(0); err != nil {
		t.Fatal(err)
	}
	data, err = s1.EncodeJSON(u)
	if err != nil {
		t.Fatal(err)
	}
	s3, _, err := DecodeJSON(data, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Entries()[0].Amended || s3.Entries()[0].Answer == s2.Entries()[0].Answer {
		t.Fatal("amendment lost through persistence")
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	truth := oracle.Func(func(boolean.Set) bool { return false })
	if _, _, err := DecodeJSON([]byte(`{`), truth); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, _, err := DecodeJSON([]byte(`{"variables":99}`), truth); err == nil {
		t.Error("oversized universe accepted")
	}
	if _, _, err := DecodeJSON([]byte(`{"variables":2,"entries":[{"question":["1"],"answer":true}]}`), truth); err == nil {
		t.Error("short tuple accepted")
	}
	dup := `{"variables":2,"entries":[{"question":["10"],"answer":true},{"question":["10"],"answer":false}]}`
	if _, _, err := DecodeJSON([]byte(dup), truth); err == nil {
		t.Error("duplicate entries accepted")
	}
}

func TestInconsistentWithAndAmendAll(t *testing.T) {
	u := boolean.MustUniverse(4)
	target := query.MustParse(u, "∀x1 → x2 ∃x3x4")
	truth := oracle.Target(target)
	asked := 0
	liar := oracle.Func(func(q boolean.Set) bool {
		asked++
		a := truth.Ask(q)
		if asked == 2 || asked == 5 {
			return !a
		}
		return a
	})
	s := New(liar)
	learn.Run(u, s, run.WithAlgorithm(run.RolePreserving))
	bad := s.InconsistentWith(truth.Ask)
	if len(bad) == 0 {
		t.Skip("both lies were on duplicate questions")
	}
	if err := s.AmendAll(bad); err != nil {
		t.Fatal(err)
	}
	if got := s.InconsistentWith(truth.Ask); got != nil {
		t.Fatalf("still inconsistent at %v", got)
	}
	again, _ := learn.Run(u, s, run.WithAlgorithm(run.RolePreserving))
	if !again.Equivalent(target) {
		t.Fatalf("after AmendAll learned %s", again)
	}
	if err := s.AmendAll([]int{99}); err == nil {
		t.Error("out-of-range AmendAll succeeded")
	}
}
