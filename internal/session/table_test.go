package session

// Tests of the history's open-addressed index: full-hash collisions
// and a reference model of the whole session. The table itself is
// tested in internal/hashindex.

import (
	"math/rand"
	"slices"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// TestIndexForcedCollisions records several distinct questions under
// the hash of another question, through the unexported record path.
// Every lookup of that question then meets full-hash matches that
// Set.Equal must reject: Index must still find it, Ask must replay it
// without reaching the user, and after Forget the re-asked question
// and the kept colliders must land on the right entries.
func TestIndexForcedCollisions(t *testing.T) {
	u := boolean.MustUniverse(4)
	c := oracle.Count(oracle.Target(query.MustParse(u, "∃x1")), nil)
	s := New(c)
	var colliders []boolean.Set
	for _, q := range []string{"{1000}", "{0100}", "{1100, 0011}", "{0001}"} {
		colliders = append(colliders, boolean.MustParseSet(u, q))
	}
	target := boolean.MustParseSet(u, "{1111}")
	h := s.hash(target)
	for _, q := range colliders {
		s.record(h, Entry{Question: q})
	}
	// Each collider is recorded at the position of its own index in
	// colliders, so a kept collider must be found exactly there.
	findKept := func(label string, kept ...int) {
		t.Helper()
		for i, q := range colliders {
			got, ok := s.find(h, q)
			if want := slices.Contains(kept, i); ok != want || ok && got != int32(i) {
				t.Fatalf("%s: collider %d found at %d, %v; want kept=%v", label, i, got, ok, want)
			}
		}
	}

	if _, ok := s.Index(target); ok {
		t.Fatal("Index found a question that was never asked")
	}
	if !s.Ask(target) || c.Questions != 1 {
		t.Fatalf("first Ask: user asked %d times, want 1 with answer true", c.Questions)
	}
	if i, ok := s.Index(target); !ok || i != len(colliders) {
		t.Fatalf("Index(target) = %d, %v; want %d", i, ok, len(colliders))
	}
	if !s.Ask(target) || !s.AskBatch([]boolean.Set{target, target})[1] || c.Questions != 1 {
		t.Fatalf("replays reached the user: %d questions, want 1", c.Questions)
	}
	findKept("before Forget", 0, 1, 2, 3)

	if err := s.Forget(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Index(target); ok {
		t.Fatal("Index found a forgotten question")
	}
	findKept("after Forget", 0, 1)
	if !s.Ask(target) || c.Questions != 2 {
		t.Fatalf("re-ask after Forget: user asked %d times, want 2", c.Questions)
	}
	s.record(h, Entry{Question: colliders[3]})
	if i, ok := s.Index(target); !ok || i != 2 {
		t.Fatalf("Index(target) after Forget = %d, %v; want 2", i, ok)
	}
	findKept("after re-recording", 0, 1, 3)
}

// TestIndexMatchesReferenceMap drives random Ask and AskBatch calls —
// with repeats inside a batch and repeats of recorded questions —
// interleaved with Amend and Forget, and compares the session with a
// reference history indexed by a map keyed by Set.Key.
func TestIndexMatchesReferenceMap(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(10)
		conj := boolean.Tuple(1) << rng.Intn(n)
		user := oracle.Count(oracle.Func(func(q boolean.Set) bool { return q.AnyContains(conj) }), nil)
		s := New(user)

		// The reference: positions by key, answers on record, and the
		// number of questions the user should have seen.
		pos := map[string]int{}
		var answers []bool
		var asked []boolean.Set
		live := 0
		ask := func(q boolean.Set) bool {
			if i, ok := pos[q.Key()]; ok {
				return answers[i]
			}
			live++
			pos[q.Key()] = len(answers)
			answers = append(answers, q.AnyContains(conj))
			asked = append(asked, q)
			return answers[len(answers)-1]
		}
		question := func() boolean.Set {
			if len(asked) > 0 && rng.Intn(3) == 0 {
				return asked[rng.Intn(len(asked))]
			}
			tuples := make([]boolean.Tuple, 1+rng.Intn(4))
			for i := range tuples {
				tuples[i] = boolean.Tuple(rng.Int63n(1 << n))
			}
			return boolean.NewSet(tuples...)
		}

		for total := 600 - rng.Intn(300); total > 0; {
			switch r := rng.Intn(20); {
			case r < 8:
				q := question()
				total--
				if got, want := s.Ask(q), ask(q); got != want {
					t.Fatalf("trial %d: Ask(%s) = %v, want %v", trial, q.Key(), got, want)
				}
			case r < 16:
				batch := make([]boolean.Set, 1+rng.Intn(12))
				for i := range batch {
					if i > 0 && rng.Intn(4) == 0 {
						batch[i] = batch[rng.Intn(i)]
					} else {
						batch[i] = question()
					}
				}
				total -= len(batch)
				got := s.AskBatch(batch)
				for i, q := range batch {
					if want := ask(q); got[i] != want {
						t.Fatalf("trial %d: AskBatch[%d] (%s) = %v, want %v", trial, i, q.Key(), got[i], want)
					}
				}
			case r < 18 && len(answers) > 0:
				i := rng.Intn(len(answers))
				if err := s.Amend(i); err != nil {
					t.Fatal(err)
				}
				answers[i] = !answers[i]
			case r < 20 && len(answers) > 0:
				i := rng.Intn(len(answers) + 1)
				if err := s.Forget(i); err != nil {
					t.Fatal(err)
				}
				for _, q := range asked[i:] {
					delete(pos, q.Key())
				}
				answers, asked = answers[:i], asked[:i]
			}
			if s.Len() != len(answers) || user.Questions != live {
				t.Fatalf("trial %d: Len %d, user asked %d; reference %d, %d",
					trial, s.Len(), user.Questions, len(answers), live)
			}
		}
		for i, q := range asked {
			if got, ok := s.Index(q); !ok || got != pos[q.Key()] || got != i {
				t.Fatalf("trial %d: Index(%s) = %d, %v; want %d", trial, q.Key(), got, ok, i)
			}
			if e := s.entries[i]; !e.Question.Equal(q) || e.Answer != answers[i] {
				t.Fatalf("trial %d: entry %d = %+v, want %s answered %v", trial, i, e, q.Key(), answers[i])
			}
		}
	}
}
