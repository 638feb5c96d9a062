package nested

import (
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

func TestIndexExecuteMatchesDirect(t *testing.T) {
	ps := ChocolatePropositions()
	u := ps.Universe()
	rng := rand.New(rand.NewSource(17))
	d := RandomChocolates(rng, 150, 5)
	ix, err := NewIndex(ps, d)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"∀x1 ∃x2x3", "∃x1", "∀x3 → x1 ∃x2", "∃x1x2x3"}
	for _, s := range queries {
		q := query.MustParse(u, s)
		direct, err := Execute(q, ps, d)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := ix.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct) != len(indexed) {
			t.Fatalf("query %s: direct %d, indexed %d", s, len(direct), len(indexed))
		}
		for i := range direct {
			if direct[i].Name != indexed[i].Name {
				t.Fatalf("query %s: order mismatch at %d", s, i)
			}
		}
	}
}

func TestIndexSelect(t *testing.T) {
	ps := ChocolatePropositions()
	u := ps.Universe()
	ix, err := NewIndex(ps, Fig1Dataset())
	if err != nil {
		t.Fatal(err)
	}
	// 111 is in the data: real Madagascar tuple.
	obj, err := ix.Select("probe", boolean.MustParseSet(u, "{111}"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Tuples[0][4].Str() != "Madagascar" {
		t.Errorf("selected origin = %q", obj.Tuples[0][4].Str())
	}
	// 001 absent: synthesized, abstraction still exact.
	obj, err = ix.Select("probe2", boolean.MustParseSet(u, "{001}"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.Abstract(obj.Tuples[0]); got != u.MustParse("001") {
		t.Errorf("synthesized class = %s", u.Format(got))
	}
}

func TestIndexErrors(t *testing.T) {
	ps := ChocolatePropositions()
	bad := Fig1Dataset()
	bad.Objects[0].Tuples[0] = bad.Objects[0].Tuples[0][:2]
	if _, err := NewIndex(ps, bad); err == nil {
		t.Error("invalid dataset indexed")
	}
	ix, err := NewIndex(ps, Fig1Dataset())
	if err != nil {
		t.Fatal(err)
	}
	wrong := query.Query{U: boolean.MustUniverse(5)}
	if _, err := ix.Execute(wrong); err == nil {
		t.Error("mismatched universe executed")
	}
}

// TestIndexBackedLearningSession: an entire learning session where
// every question is served from the index with real tuples where
// possible.
func TestIndexBackedLearningSession(t *testing.T) {
	ps := ChocolatePropositions()
	u := ps.Universe()
	rng := rand.New(rand.NewSource(18))
	ix, err := NewIndex(ps, RandomChocolates(rng, 300, 6))
	if err != nil {
		t.Fatal(err)
	}
	intended := query.MustParse(u, "∀x1 ∃x2x3")
	user := oracle.Func(func(s boolean.Set) bool {
		obj, err := ix.Select("q", s)
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		return intended.Eval(ps.AbstractObject(obj))
	})
	learned, _ := learn.Run(u, user)
	if !learned.Equivalent(intended) {
		t.Fatalf("learned %s", learned)
	}
	got, err := ix.Execute(learned)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Execute(intended)
	if err != nil || len(got) != len(want) {
		t.Fatalf("answers differ: %d vs %d (%v)", len(got), len(want), err)
	}
}
