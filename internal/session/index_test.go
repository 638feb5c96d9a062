package session_test

import (
	"runtime"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/session"
)

// swapUser forwards to a replaceable budget, so one session can run
// out of questions and then continue under a fresh budget.
type swapUser struct{ b *oracle.Budget }

func (u *swapUser) Ask(q boolean.Set) bool           { return u.b.Ask(q) }
func (u *swapUser) AskBatch(qs []boolean.Set) []bool { return u.b.AskBatch(qs) }

// spyUser snapshots the session each time it forwards a sub-batch, so
// a test can compare the history after a panic with the history just
// before the batch that panicked.
type spyUser struct {
	inner   oracle.BatchOracle
	s       *session.Session
	entries []session.Entry
	live    int
}

func (u *spyUser) Ask(q boolean.Set) bool { return u.AskBatch([]boolean.Set{q})[0] }

func (u *spyUser) AskBatch(qs []boolean.Set) []bool {
	u.entries, u.live = u.s.Entries(), u.s.LiveQuestions
	return u.inner.AskBatch(qs)
}

// TestAskBatchBudgetPanicRecordsNothing: a budget that runs out inside
// AskBatch leaves Len, Entries and LiveQuestions as they were before
// that batch, and the same session then finishes the learn under a
// fresh budget with exactly the history of an unbudgeted run.
func TestAskBatchBudgetPanicRecordsNothing(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := oracle.Target(query.MustParse(u, "∀x1x2 → x3 ∃x4x5 ∃x6"))
	opts := []run.Option{run.WithAlgorithm(run.RolePreserving), run.WithBatch()}

	ref := session.New(target)
	want, _ := learn.Run(u, ref, opts...)
	total := ref.Len()

	swap := &swapUser{b: oracle.WithBudget(target, total/2, nil)}
	spy := &spyUser{inner: swap}
	s := session.New(spy)
	spy.s = s
	func() {
		defer func() {
			if _, ok := recover().(oracle.ErrBudget); !ok {
				t.Fatal("learn under half the budget did not panic with ErrBudget")
			}
		}()
		learn.Run(u, s, opts...)
	}()
	if s.Len() != len(spy.entries) || s.LiveQuestions != spy.live {
		t.Fatalf("after the budget panic: len=%d live=%d, before the batch: len=%d live=%d",
			s.Len(), s.LiveQuestions, len(spy.entries), spy.live)
	}
	sameEntries(t, "history after the budget panic", s.Entries(), spy.entries)
	if s.Len() == 0 || s.Len() > total/2 {
		t.Fatalf("recorded %d of %d questions under a budget of %d", s.Len(), total, total/2)
	}

	recorded := s.Len()
	swap.b = oracle.WithBudget(target, total, nil)
	s.ResetRun()
	got, _ := learn.Run(u, s, opts...)
	if got.String() != want.String() {
		t.Fatalf("continued learn = %s, want %s", got, want)
	}
	sameEntries(t, "continued history", s.Entries(), ref.Entries())
	if s.LiveQuestions != total-recorded {
		t.Fatalf("continued run asked %d live questions, want %d", s.LiveQuestions, total-recorded)
	}
}

// TestRecordedQuestionsDoNotAllocate: the index answers a recorded
// question without building a key, so Ask allocates nothing and
// AskBatch allocates at most its answers slice.
func TestRecordedQuestionsDoNotAllocate(t *testing.T) {
	u := boolean.MustUniverse(4)
	s := session.New(oracle.Target(query.MustParse(u, "∀x1 → x2 ∃x3x4")))
	qs := []boolean.Set{
		boolean.MustParseSet(u, "{1100, 0011}"),
		boolean.MustParseSet(u, "{1000}"),
		boolean.MustParseSet(u, "{0110, 1111}"),
	}
	s.AskBatch(qs)
	if n := testing.AllocsPerRun(100, func() { s.Ask(qs[1]) }); n != 0 {
		t.Errorf("Ask of a recorded question allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.AskBatch(qs) }); n > 1 {
		t.Errorf("AskBatch of recorded questions allocates %v times, want at most 1", n)
	}
	if s.LiveQuestions != len(qs) {
		t.Fatalf("live questions = %d, want %d", s.LiveQuestions, len(qs))
	}
}

// TestNewQuestionsAllocateNoKey: recording a new question allocates
// nothing of its own. Asking 1024 distinct questions through one
// session may allocate only as the history, its hashes and its table
// grow, a few dozen times in all, not once per question.
func TestNewQuestionsAllocateNoKey(t *testing.T) {
	const n = 1024
	qs := make([]boolean.Set, n)
	for i := range qs {
		qs[i] = boolean.NewSet(boolean.Tuple(i), boolean.Tuple(i+n))
	}
	s := session.New(oracle.Func(func(boolean.Set) bool { return true }))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		s.Ask(q)
	}
	runtime.ReadMemStats(&after)
	if s.Len() != n {
		t.Fatalf("recorded %d questions, want %d", s.Len(), n)
	}
	if m := after.Mallocs - before.Mallocs; m > 40 {
		t.Errorf("asking %d new questions allocated %d times, want at most 40", n, m)
	}
}

// TestForgetReasksAndKeepsViews: a forgotten question goes back to the
// user, and a View taken before Forget still shows the old history
// after new questions are recorded.
func TestForgetReasksAndKeepsViews(t *testing.T) {
	u := boolean.MustUniverse(3)
	c := oracle.Count(oracle.Target(query.MustParse(u, "∃x1")), nil)
	s := session.New(c)
	q := []boolean.Set{
		boolean.MustParseSet(u, "{100}"),
		boolean.MustParseSet(u, "{010}"),
		boolean.MustParseSet(u, "{110, 001}"),
		boolean.MustParseSet(u, "{011}"),
	}
	s.AskBatch(q[:3])
	view, before := s.View(), s.Entries()
	if err := s.Forget(1); err != nil {
		t.Fatal(err)
	}
	s.Ask(q[3])
	s.AskBatch([]boolean.Set{q[2], q[1]})
	if c.Questions != 6 {
		t.Fatalf("user asked %d questions, want 6 (3, then 1 new and 2 forgotten)", c.Questions)
	}
	sameEntries(t, "view taken before Forget", view, before)
	for i, want := range []boolean.Set{q[0], q[3], q[2], q[1]} {
		if got, ok := s.Index(want); !ok || got != i {
			t.Fatalf("Index(question %d) = %d, %v; want %d", i, got, ok, i)
		}
	}
}

// pairQuestions returns n distinct questions {i, i+1024} over an
// 11-variable universe, answered by parityUser.
func pairQuestions(n int) []boolean.Set {
	qs := make([]boolean.Set, n)
	for i := range qs {
		qs[i] = boolean.NewSet(boolean.Tuple(i), boolean.Tuple(i+1024))
	}
	return qs
}

// parityUser answers a question by the parity of its smallest tuple.
func parityUser() *oracle.Counter {
	return oracle.Count(oracle.Func(func(q boolean.Set) bool { return q.Tuples()[0]%2 == 0 }), nil)
}

// TestHistoryCrossesReservedBlock: a history that outgrows the block
// its first record reserves, through Ask and AskBatch with repeats,
// keeps every question at its first-asked position, and a View taken
// inside the block or at its edge never shows a later entry.
func TestHistoryCrossesReservedBlock(t *testing.T) {
	const n = 556 // the block, then six steps of 50
	qs := pairQuestions(n)
	c := parityUser()
	s := session.New(c)
	for _, q := range qs[:10] {
		s.Ask(q)
	}
	view10, copy10 := s.View(), s.Entries()
	s.AskBatch(append(qs[10:256:256], qs[3], qs[200]))
	view256, copy256 := s.View(), s.Entries()
	for i := 256; i < n; i += 50 {
		if i%100 == 6 {
			s.AskBatch(append(qs[i:i+50:i+50], qs[i-1], qs[i]))
		} else {
			for _, q := range qs[i : i+50] {
				s.Ask(q)
			}
		}
	}
	if c.Questions != n || s.Len() != n {
		t.Fatalf("user asked %d questions, history holds %d; want %d", c.Questions, s.Len(), n)
	}
	for i, q := range qs {
		if got, ok := s.Index(q); !ok || got != i {
			t.Fatalf("Index(question %d) = %d, %v; want %d", i, got, ok, i)
		}
		if a := s.Ask(q); a != (i%2 == 0) {
			t.Fatalf("question %d answered %v from the record, want %v", i, a, !a)
		}
	}
	if c.Questions != n {
		t.Fatalf("re-asking the history reached the user %d times, want 0", c.Questions-n)
	}
	sameEntries(t, "view of 10 entries", view10, copy10)
	sameEntries(t, "view of 256 entries", view256, copy256)
}

// TestForgetAllThenRecord: Forget(0) followed by new questions
// re-reserves the history, whether or not it had outgrown its block,
// and a View taken before Forget still shows the forgotten history.
func TestForgetAllThenRecord(t *testing.T) {
	for _, before := range []int{5, 300} {
		qs := pairQuestions(before + 20)
		c := parityUser()
		s := session.New(c)
		for _, q := range qs[:before] {
			s.Ask(q)
		}
		view, old := s.View(), s.Entries()
		if err := s.Forget(0); err != nil {
			t.Fatal(err)
		}
		// Forgotten questions are asked again, in a new order.
		again := append(append([]boolean.Set{}, qs[before:]...), qs[:before]...)
		s.AskBatch(again[:10])
		for _, q := range again[10:] {
			s.Ask(q)
		}
		if c.Questions != 2*before+20 {
			t.Fatalf("before=%d: user asked %d questions, want %d", before, c.Questions, 2*before+20)
		}
		for i, q := range again {
			if got, ok := s.Index(q); !ok || got != i {
				t.Fatalf("before=%d: Index(question %d) = %d, %v; want %d", before, i, got, ok, i)
			}
		}
		sameEntries(t, "view taken before Forget(0)", view, old)
	}
}

// TestDecodeSnapshotLargerThanBlock: a snapshot of more questions than
// the reserved block decodes to the same history, replays every
// question for free and records the next new question after it.
func TestDecodeSnapshotLargerThanBlock(t *testing.T) {
	const n = 300
	u := boolean.MustUniverse(11)
	qs := pairQuestions(n + 1)
	s := session.New(parityUser())
	for _, q := range qs[:n] {
		s.Ask(q)
	}
	if err := s.AmendAll([]int{0, 255, 256, n - 1}); err != nil {
		t.Fatal(err)
	}
	data, err := s.EncodeJSON(u)
	if err != nil {
		t.Fatal(err)
	}
	c := parityUser()
	d, _, err := session.DecodeJSON(data, c)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, "decoded history", d.Entries(), s.Entries())
	for i, q := range qs[:n] {
		d.Ask(q)
		if got, ok := d.Index(q); !ok || got != i {
			t.Fatalf("Index(question %d) = %d, %v; want %d", i, got, ok, i)
		}
	}
	if c.Questions != 0 {
		t.Fatalf("replaying the decoded history asked the user %d times, want 0", c.Questions)
	}
	d.Ask(qs[n])
	if got, ok := d.Index(qs[n]); c.Questions != 1 || !ok || got != n {
		t.Fatalf("new question after the snapshot: %d user questions, Index %d, %v; want 1, %d", c.Questions, got, ok, n)
	}
}
