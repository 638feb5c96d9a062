package boolean

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randomSet is a quick.Generator for small tuple sets over 6
// variables.
type randomSet struct{ S Set }

func (randomSet) Generate(rng *rand.Rand, size int) reflect.Value {
	m := rng.Intn(5)
	tuples := make([]Tuple, m)
	for i := range tuples {
		tuples[i] = Tuple(rng.Intn(64))
	}
	return reflect.ValueOf(randomSet{NewSet(tuples...)})
}

func TestQuickSetAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	// Union is commutative, associative and idempotent.
	comm := func(a, b randomSet) bool {
		return a.S.Union(b.S).Equal(b.S.Union(a.S))
	}
	if err := quick.Check(comm, cfg); err != nil {
		t.Error("commutativity:", err)
	}
	assoc := func(a, b, c randomSet) bool {
		return a.S.Union(b.S).Union(c.S).Equal(a.S.Union(b.S.Union(c.S)))
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Error("associativity:", err)
	}
	idem := func(a randomSet) bool {
		return a.S.Union(a.S).Equal(a.S)
	}
	if err := quick.Check(idem, cfg); err != nil {
		t.Error("idempotence:", err)
	}
}

func TestQuickSetWithWithoutInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	f := func(a randomSet) bool {
		tp := Tuple(rng.Intn(64))
		if a.S.Has(tp) {
			return a.S.Without(tp).With(tp).Equal(a.S)
		}
		return a.S.With(tp).Without(tp).Equal(a.S)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAnyContainsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	f := func(a randomSet) bool {
		conj := Tuple(rng.Intn(64))
		sub := conj & Tuple(rng.Intn(64)) // sub ⊆ conj
		// Satisfying the bigger conjunction satisfies the smaller.
		if a.S.AnyContains(conj) && !a.S.AnyContains(sub) {
			return false
		}
		// Adding a tuple never unsatisfies.
		extra := Tuple(rng.Intn(64))
		if a.S.AnyContains(conj) && !a.S.With(extra).AnyContains(conj) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyFaithful(t *testing.T) {
	f := func(a, b randomSet) bool {
		return (a.S.Key() == b.S.Key()) == a.S.Equal(b.S)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickFormatParseRoundTrip(t *testing.T) {
	u := MustUniverse(6)
	f := func(a randomSet) bool {
		back, err := ParseSet(u, a.S.Format(u))
		return err == nil && back.Equal(a.S)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickParseKeyRoundTrip: ParseKey inverts Key on every set, over
// the full 64-bit tuple width as well as small universes, and AppendID
// is as faithful as Key.
func TestQuickParseKeyRoundTrip(t *testing.T) {
	wide := func(ws []uint64) bool {
		tuples := make([]Tuple, len(ws))
		for i, w := range ws {
			tuples[i] = Tuple(w)
		}
		s := NewSet(tuples...)
		back, err := ParseKey(s.Key())
		return err == nil && back.Equal(s) && back.Key() == s.Key()
	}
	if err := quick.Check(wide, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	small := func(a, b randomSet) bool {
		back, err := ParseKey(a.S.Key())
		sameID := string(a.S.AppendID(nil)) == string(b.S.AppendID(nil))
		return err == nil && back.Equal(a.S) && sameID == a.S.Equal(b.S)
	}
	if err := quick.Check(small, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestNewSetMatchesSortDedupe: NewSet equals a sort-plus-dedupe
// reference whether or not its input arrives sorted, and neither keeps
// nor modifies the caller's slice.
func TestNewSetMatchesSortDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	inputs := map[string][]Tuple{
		"empty":             {},
		"single":            {5},
		"sorted":            {1, 2, 3, 8, 13},
		"sorted duplicates": {1, 1, 2, 8, 8, 8},
		"reversed":          {13, 8, 3, 2, 1},
	}
	for i := 0; i < 200; i++ {
		in := make([]Tuple, rng.Intn(12))
		for j := range in {
			in[j] = Tuple(rng.Intn(16)) // 16 values: duplicates are common
		}
		inputs[fmt.Sprintf("random %d", i)] = in
	}
	for name, in := range inputs {
		orig := slices.Clone(in)
		want := slices.Clone(orig)
		slices.Sort(want)
		want = slices.Compact(want)
		s := NewSet(in...)
		if !slices.Equal(s.Tuples(), want) {
			t.Errorf("%s: NewSet(%v) = %v, want %v", name, orig, s.Tuples(), want)
		}
		if !slices.Equal(in, orig) {
			t.Errorf("%s: NewSet modified its input: %v, was %v", name, in, orig)
		}
		for j := range in {
			in[j] = ^in[j]
		}
		if !slices.Equal(s.Tuples(), want) {
			t.Errorf("%s: NewSet retained its input: %v after the caller's writes, want %v", name, s.Tuples(), want)
		}
	}
}
