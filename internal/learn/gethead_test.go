package learn

import (
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// TestGetHeadExhaustive validates the invariant-based GetHead
// (Algorithm 5) directly against every possible head subset: for a
// part with body B and head set H over D = B ∪ H (minus the probe
// variable), GetHead must return a member of H exactly when |H| ≥ 2.
func TestGetHeadExhaustive(t *testing.T) {
	for n := 3; n <= 9; n++ {
		u := boolean.MustUniverse(n)
		// Variable 0 is the probe variable e; D = {1..n-1}.
		dVars := make([]int, 0, n-1)
		for v := 1; v < n; v++ {
			dVars = append(dVars, v)
		}
		// Enumerate every split of D into heads H and body rest; e
		// joins the body. The query is ∃(body ∪ {e}) → h per head, or
		// the single conjunction when H is empty.
		for hm := 0; hm < 1<<uint(len(dVars)); hm++ {
			var heads []int
			var body boolean.Tuple
			body = body.With(0) // e
			for i, v := range dVars {
				if hm&(1<<uint(i)) != 0 {
					heads = append(heads, v)
				} else {
					body = body.With(v)
				}
			}
			var exprs []query.Expr
			if len(heads) == 0 {
				exprs = append(exprs, query.Conjunction(body))
			}
			for _, h := range heads {
				exprs = append(exprs, query.ExistentialHorn(body, h))
			}
			target := query.MustNew(u, exprs...)
			l := &qhorn1Learner{u: u, o: oracle.Target(target)}
			l.phase = &l.stats.ExistentialQuestions
			got, ok := l.getHead(dVars)
			if len(heads) >= 2 {
				if !ok {
					t.Fatalf("n=%d heads=%v: GetHead found nothing", n, heads)
				}
				isHead := false
				for _, h := range heads {
					if h == got {
						isHead = true
					}
				}
				if !isHead {
					t.Fatalf("n=%d heads=%v: GetHead returned body variable x%d", n, heads, got+1)
				}
			} else if ok {
				t.Fatalf("n=%d heads=%v: GetHead returned x%d with <2 heads", n, heads, got+1)
			}
		}
	}
}

// TestGetHeadQuestionBound: O(lg |D|) matrix questions per call once
// two heads exist (Lemma 3.3).
func TestGetHeadQuestionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(10)
		u := boolean.MustUniverse(n)
		dVars := make([]int, 0, n-1)
		for v := 1; v < n; v++ {
			dVars = append(dVars, v)
		}
		// Two random heads, rest body.
		perm := rng.Perm(len(dVars))
		h1, h2 := dVars[perm[0]], dVars[perm[1]]
		body := boolean.FromVars(0)
		for _, v := range dVars {
			if v != h1 && v != h2 {
				body = body.With(v)
			}
		}
		target := query.MustNew(u,
			query.ExistentialHorn(body, h1),
			query.ExistentialHorn(body, h2),
		)
		c := oracle.Count(oracle.Target(target), nil)
		l := &qhorn1Learner{u: u, o: c}
		l.phase = &l.stats.ExistentialQuestions
		if _, ok := l.getHead(dVars); !ok {
			t.Fatal("two heads not detected")
		}
		// 1 initial matrix question + ⌈lg |D|⌉ halvings, with slack.
		if c.Questions > 2+2*bitsLen(len(dVars)) {
			t.Errorf("n=%d: GetHead asked %d questions", n, c.Questions)
		}
	}
}

func bitsLen(x int) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}
