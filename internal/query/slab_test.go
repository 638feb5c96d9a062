package query

import (
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
)

// Queries returns the candidate slice the slab was compiled from;
// candidate i owns bit i of the EvalAll result.
func (s *Slab) Queries() []Query { return s.queries }

// Len returns the number of candidates packed into the slab.
func (s *Slab) Len() int { return len(s.queries) }

// TestSlabEvalAllExhaustive pins the bit-sliced kernel to the
// per-candidate compiled kernel over every query and every object of
// small universes, packing the enumerated queries into full-width
// slabs so the identity covers all 64 bit positions.
func TestSlabEvalAllExhaustive(t *testing.T) {
	for n := 0; n <= 3; n++ {
		u := boolean.MustUniverse(n)
		objects := boolean.AllObjects(u)
		queries := AllQueries(u)
		for lo := 0; lo < len(queries); lo += SlabWidth {
			hi := lo + SlabWidth
			if hi > len(queries) {
				hi = len(queries)
			}
			chunk := queries[lo:hi]
			slab := CompileSlab(chunk)
			compiled := make([]*Compiled, len(chunk))
			for i, q := range chunk {
				compiled[i] = Compile(q)
			}
			for _, o := range objects {
				word := slab.EvalAll(o)
				for i, c := range compiled {
					got := word&(1<<uint(i)) != 0
					if want := c.Eval(o); got != want {
						t.Fatalf("n=%d slab[%d..%d) bit %d query %s object %s: sliced %v, scalar %v",
							n, lo, hi, i, chunk[i], o.Format(u), got, want)
					}
				}
			}
		}
	}
}

// TestSlabEvalAllRandom cross-checks random slab packings on universes
// too large to enumerate, with random widths from 1 to 64.
func TestSlabEvalAllRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(10)
		u := boolean.MustUniverse(n)
		width := 1 + rng.Intn(SlabWidth)
		queries := make([]Query, width)
		compiled := make([]*Compiled, width)
		for i := range queries {
			if rng.Intn(2) == 0 {
				queries[i] = GenQhorn1(rng, n)
			} else {
				queries[i] = GenRolePreserving(rng, n, RPOptions{
					Heads: 1 + rng.Intn(3), BodiesPerHead: 1 + rng.Intn(2),
					MaxBodySize: 3, Conjs: rng.Intn(3), MaxConjSize: 1 + n/2,
				})
			}
			compiled[i] = Compile(queries[i])
		}
		slab := CompileSlab(queries)
		if slab.Len() != width {
			t.Fatalf("Len = %d, want %d", slab.Len(), width)
		}
		for probe := 0; probe < 30; probe++ {
			var tuples []boolean.Tuple
			for j := rng.Intn(5); j >= 0; j-- {
				tuples = append(tuples, boolean.Tuple(rng.Int63()).Intersect(u.All()))
			}
			o := boolean.NewSet(tuples...)
			word := slab.EvalAll(o)
			for i, c := range compiled {
				if got, want := word&(1<<uint(i)) != 0, c.Eval(o); got != want {
					t.Fatalf("width %d bit %d query %s object %s: sliced %v, scalar %v",
						width, i, queries[i], o.Format(u), got, want)
				}
			}
		}
		// High bits beyond the packed width must stay clear.
		if width < SlabWidth {
			if word := slab.EvalAll(boolean.Set{}); word>>uint(width) != 0 {
				t.Fatalf("width %d: EvalAll set bits beyond the packed candidates: %#x", width, word)
			}
		}
	}
}

// TestSlabDedup: candidates sharing requirement masks and rules must
// collapse to single slab entries with merged owner words.
func TestSlabDedup(t *testing.T) {
	u := boolean.MustUniverse(4)
	q := MustParse(u, "∀x1x2 → x3 ∃x1x4")
	same := MustParse(u, "∀x1x2 → x3 ∃x1x4")
	other := MustParse(u, "∀x1x2 → x3 ∃x2x4")
	slab := CompileSlab([]Query{q, same, other})
	// One shared rule across all three candidates.
	if len(slab.rules) != 1 {
		t.Fatalf("%d distinct rules, want 1", len(slab.rules))
	}
	if slab.rules[0].owners != 0b111 {
		t.Fatalf("rule owners %#b, want 0b111", slab.rules[0].owners)
	}
	// Requirements: the shared guarantee {x1,x2,x3}, ∃x1x4 (candidates
	// 0 and 1) and ∃x2x4 (candidate 2).
	if len(slab.reqs) != 3 {
		t.Fatalf("%d distinct requirements, want 3", len(slab.reqs))
	}
	owners := map[uint64]uint64{}
	for _, r := range slab.reqs {
		owners[r.mask] = r.owners
	}
	guar := uint64(boolean.FromVars(0, 1, 2))
	if owners[guar] != 0b111 {
		t.Fatalf("guarantee owners %#b, want 0b111", owners[guar])
	}
	if owners[uint64(boolean.FromVars(0, 3))] != 0b011 {
		t.Fatalf("∃x1x4 owners %#b, want 0b011", owners[uint64(boolean.FromVars(0, 3))])
	}
	if owners[uint64(boolean.FromVars(1, 3))] != 0b100 {
		t.Fatalf("∃x2x4 owners %#b, want 0b100", owners[uint64(boolean.FromVars(1, 3))])
	}
}

// TestSlabQueriesRoundTrip: the slab remembers its candidates in bit
// order.
func TestSlabQueriesRoundTrip(t *testing.T) {
	u := boolean.MustUniverse(3)
	qs := []Query{MustParse(u, "∀x1 → x2"), MustParse(u, "∃x3")}
	got := CompileSlab(qs).Queries()
	if len(got) != 2 || !got[0].Equal(qs[0]) || !got[1].Equal(qs[1]) {
		t.Fatalf("Queries() returned %v", got)
	}
}

// TestCompileSlabPanics: widths outside 1..64 are programmer errors.
func TestCompileSlabPanics(t *testing.T) {
	u := boolean.MustUniverse(2)
	for _, width := range []int{0, SlabWidth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CompileSlab accepted %d queries", width)
				}
			}()
			CompileSlab(make([]Query, width))
		}()
	}
	_ = u
}

// TestSlabEvalAllZeroAllocs is the steady-state allocation gate CI
// enforces alongside Compiled.Eval's: Slab.EvalAll must not allocate.
func TestSlabEvalAllZeroAllocs(t *testing.T) {
	u := boolean.MustUniverse(6)
	rng := rand.New(rand.NewSource(43))
	queries := make([]Query, SlabWidth)
	for i := range queries {
		queries[i] = GenRolePreserving(rng, 6, RPOptions{
			Heads: 1 + rng.Intn(2), BodiesPerHead: 1 + rng.Intn(2),
			MaxBodySize: 3, Conjs: 1 + rng.Intn(2), MaxConjSize: 3,
		})
	}
	slab := CompileSlab(queries)
	s := boolean.MustParseSet(u, "{111001, 011110, 110011, 011011, 100110}")
	if allocs := testing.AllocsPerRun(1000, func() { slab.EvalAll(s) }); allocs != 0 {
		t.Fatalf("Slab.EvalAll allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkSlabEvalAll measures the per-object cost of answering all
// 64 candidates at once, against 64 scalar Eval calls.
func BenchmarkSlabEvalAll(b *testing.B) {
	u := boolean.MustUniverse(6)
	rng := rand.New(rand.NewSource(47))
	queries := make([]Query, SlabWidth)
	compiled := make([]*Compiled, SlabWidth)
	for i := range queries {
		queries[i] = GenRolePreserving(rng, 6, RPOptions{
			Heads: 1 + rng.Intn(2), BodiesPerHead: 1 + rng.Intn(2),
			MaxBodySize: 3, Conjs: 1 + rng.Intn(2), MaxConjSize: 3,
		})
		compiled[i] = Compile(queries[i])
	}
	slab := CompileSlab(queries)
	s := boolean.MustParseSet(u, "{111001, 011110, 110011, 011011, 100110}")
	b.Run("sliced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slab.EvalAll(s)
		}
	})
	b.Run("scalar64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range compiled {
				c.Eval(s)
			}
		}
	})
}
