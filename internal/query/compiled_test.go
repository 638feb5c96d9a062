package query

import (
	"fmt"
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
)

// TestCompiledEvalExhaustive pins the kernel to the interpreted
// evaluator over every query and every object of small universes —
// the strongest identity check available.
func TestCompiledEvalExhaustive(t *testing.T) {
	for n := 0; n <= 3; n++ {
		u := boolean.MustUniverse(n)
		objects := boolean.AllObjects(u)
		for _, q := range AllQueries(u) {
			c := Compile(q)
			for _, o := range objects {
				if got, want := c.Eval(o), q.Eval(o); got != want {
					t.Fatalf("n=%d query %s object %s: compiled %v, interpreted %v",
						n, q, o.Format(u), got, want)
				}
			}
		}
	}
}

// TestCompiledEvalRandom cross-checks the kernel on random generated
// queries and random objects over universes too large to enumerate:
// 200 trials at 4–15 variables, then 24 variables, the size of the
// recorded session the kernel benchmarks replay.
func TestCompiledEvalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(trial, n int) {
		u := boolean.MustUniverse(n)
		var q Query
		if trial%2 == 0 {
			q = GenQhorn1(rng, n)
		} else {
			q = GenRolePreserving(rng, n, RPOptions{
				Heads: 1 + rng.Intn(3), BodiesPerHead: 1 + rng.Intn(2),
				MaxBodySize: 3, Conjs: rng.Intn(3), MaxConjSize: n / 2,
			})
		}
		c := Compile(q)
		for probe := 0; probe < 40; probe++ {
			var tuples []boolean.Tuple
			for j := rng.Intn(5); j >= 0; j-- {
				tuples = append(tuples, boolean.Tuple(rng.Int63()).Intersect(u.All()))
			}
			o := boolean.NewSet(tuples...)
			if got, want := c.Eval(o), q.Eval(o); got != want {
				t.Fatalf("query %s object %s: compiled %v, interpreted %v",
					q, o.Format(u), got, want)
			}
		}
		// The empty object (the paper's empty chocolate box) is the
		// classic edge: a non-answer to any non-empty query.
		if got, want := c.Eval(boolean.Set{}), q.Eval(boolean.Set{}); got != want {
			t.Fatalf("query %s empty object: compiled %v, interpreted %v", q, got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		check(trial, 4+rng.Intn(12))
	}
	for trial := 0; trial < 20; trial++ {
		check(trial, 24)
	}
}

// TestCompiledManyConjunctions drives a query with hundreds of
// required conjunctions — far beyond anything the paper's classes
// produce — through the kernel: the flat requirement scan has no size
// limit and must agree with the interpreter throughout.
func TestCompiledManyConjunctions(t *testing.T) {
	u := boolean.MustUniverse(12)
	rng := rand.New(rand.NewSource(9))
	var exprs []Expr
	seen := map[boolean.Tuple]bool{}
	for len(exprs) < 261 {
		c := boolean.Tuple(rng.Int63()).Intersect(u.All())
		if c.IsEmpty() || seen[c] {
			continue
		}
		seen[c] = true
		exprs = append(exprs, Conjunction(c))
	}
	q := MustNew(u, exprs...)
	c := Compile(q)
	if len(c.req) != len(exprs) {
		t.Fatalf("compiled %d requirements, want %d", len(c.req), len(exprs))
	}
	for probe := 0; probe < 50; probe++ {
		var tuples []boolean.Tuple
		for j := rng.Intn(4); j >= 0; j-- {
			tuples = append(tuples, boolean.Tuple(rng.Int63()).Intersect(u.All()))
		}
		o := boolean.NewSet(tuples...)
		if got, want := c.Eval(o), q.Eval(o); got != want {
			t.Fatalf("object %s: compiled %v, interpreted %v", o.Format(u), got, want)
		}
	}
}

// TestCompiledEvalZeroAllocs is the steady-state allocation gate CI
// enforces: Compiled.Eval must not allocate.
func TestCompiledEvalZeroAllocs(t *testing.T) {
	u := boolean.MustUniverse(6)
	q := MustParse(u, "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	c := Compile(q)
	s := boolean.MustParseSet(u, "{111001, 011110, 110011, 011011, 100110}")
	if allocs := testing.AllocsPerRun(1000, func() { c.Eval(s) }); allocs != 0 {
		t.Fatalf("Compiled.Eval allocates %.1f times per call, want 0", allocs)
	}
}

// TestCompiledNormalizeCached checks the cached normal form and the
// normal-form-reusing Equivalent/Implies wrappers.
func TestCompiledNormalizeCached(t *testing.T) {
	u := boolean.MustUniverse(6)
	a := MustParse(u, "∀x1x2 → x5 ∃x3x4")
	b := MustParse(u, "∃x3x4 ∀x1x2 → x5 ∃x1x2x5") // same semantics, redundant conjunction
	ca, cb := Compile(a), Compile(b)
	nf := ca.Normalize()
	if !nf.Equal(a.Normalize()) {
		t.Fatalf("cached normal form %s differs from Normalize() %s", nf, a.Normalize())
	}
	if again := ca.Normalize(); &again.Exprs[0] != &nf.Exprs[0] {
		t.Fatal("Normalize recomputed instead of returning the cached form")
	}
	if !ca.Equivalent(cb) || !cb.Equivalent(ca) {
		t.Fatalf("%s and %s should be equivalent", a, b)
	}
	if !ca.Implies(cb) || !cb.Implies(ca) {
		t.Fatalf("%s and %s should imply each other", a, b)
	}
	stronger := Compile(MustParse(u, "∀x1x2 → x5 ∃x3x4 ∃x1x2x5x6"))
	if !stronger.Implies(ca) {
		t.Fatalf("%s should imply %s", stronger.Query(), a)
	}
	if ca.Implies(stronger) {
		t.Fatalf("%s should not imply %s", a, stronger.Query())
	}
	other := Compile(MustParse(boolean.MustUniverse(4), "∃x1x2"))
	if ca.Equivalent(other) {
		t.Fatal("queries over different universes cannot be equivalent")
	}
}

// TestNormalizeIdempotentCached: Normalize on a normalized query is a
// no-op returning the receiver, and the Equal fast path agrees with
// the key-based slow path.
func TestNormalizeIdempotentCached(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		q := GenRolePreserving(rng, 4, RPOptions{
			Heads: 1, BodiesPerHead: 1, MaxBodySize: 2, Conjs: 2, MaxConjSize: 3,
		})
		nf := q.Normalize()
		if !nf.normal {
			t.Fatalf("Normalize did not mark %s as normal", nf)
		}
		again := nf.Normalize()
		if len(again.Exprs) > 0 && &again.Exprs[0] != &nf.Exprs[0] {
			t.Fatalf("Normalize recomputed an already-normal query %s", nf)
		}
		// Fast path (both normal) agrees with the key-based path
		// (at least one side unmarked).
		unmarked := Query{U: nf.U, Exprs: nf.Exprs}
		if !nf.Equal(q.Normalize()) || !nf.Equal(unmarked) || !unmarked.Equal(nf) {
			t.Fatalf("Equal fast path diverged on %s", nf)
		}
	}
}

// TestCompiledQueryRoundTrip: the kernel remembers its source query.
func TestCompiledQueryRoundTrip(t *testing.T) {
	u := boolean.MustUniverse(3)
	q := MustParse(u, "∀x1 → x2 ∃x3")
	if got := Compile(q).Query(); !got.Equal(q) {
		t.Fatalf("Query() returned %s, want %s", got, q)
	}
}

func BenchmarkCompile(b *testing.B) {
	u := boolean.MustUniverse(6)
	q := MustParse(u, "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compile(q)
	}
}

func ExampleCompile() {
	u := boolean.MustUniverse(3)
	q := MustParse(u, "∀x1 → x3 ∃x2")
	c := Compile(q)
	fmt.Println(c.Eval(boolean.MustParseSet(u, "{101, 010}")))
	fmt.Println(c.Eval(boolean.MustParseSet(u, "{100}")))
	// Output:
	// true
	// false
}
