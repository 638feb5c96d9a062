package learn

import (
	"math/rand"
	"testing"

	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// TestEstimateQhorn1IsUpperBound: the estimate dominates the measured
// question count on random targets.
func TestEstimateQhorn1IsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(30)
		target := query.GenQhorn1Sized(rng, n, 4)
		_, st := Run(target.U, oracle.Target(target))
		if st.Total() > EstimateQhorn1(n) {
			t.Fatalf("n=%d: %d questions exceed estimate %d", n, st.Total(), EstimateQhorn1(n))
		}
	}
	if EstimateQhorn1(0) != 0 || EstimateQhorn1(1) != 1 {
		t.Error("degenerate estimates wrong")
	}
}

// TestEstimateRolePreservingIsUpperBound: same for the role-preserving
// learner when the shape parameters are known.
func TestEstimateRolePreservingIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for i := 0; i < 30; i++ {
		n := 4 + rng.Intn(9)
		heads := rng.Intn(n / 2)
		theta := 1 + rng.Intn(2)
		conjs := 1 + rng.Intn(3)
		target := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads: heads, BodiesPerHead: theta, MaxBodySize: 3,
			Conjs: conjs, MaxConjSize: n / 2,
		})
		_, st := Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
		// k includes guarantee clauses of the universals.
		k := conjs + heads*theta
		bound := EstimateRolePreserving(n, heads, theta, k)
		if st.Total() > bound {
			t.Fatalf("n=%d heads=%d θ=%d k=%d: %d questions exceed estimate %d",
				n, heads, theta, k, st.Total(), bound)
		}
	}
	if EstimateRolePreserving(0, 1, 1, 1) != 0 {
		t.Error("degenerate estimate wrong")
	}
	if EstimateRolePreserving(4, -1, 0, 0) <= 0 {
		t.Error("clamped estimate wrong")
	}
}
