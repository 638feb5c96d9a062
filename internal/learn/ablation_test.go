package learn

import (
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// TestAblationsPreserveExactness: disabling either optimization must
// not change what is learned, only how many questions it takes.
func TestAblationsPreserveExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	variants := []Ablations{
		{NoGuaranteeSeeds: true},
		{SerialPrune: true},
		{NoGuaranteeSeeds: true, SerialPrune: true},
	}
	for i := 0; i < 60; i++ {
		n := 3 + rng.Intn(7)
		target := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads:         rng.Intn(n / 2),
			BodiesPerHead: 1 + rng.Intn(2),
			MaxBodySize:   1 + rng.Intn(3),
			Conjs:         rng.Intn(3),
			MaxConjSize:   1 + rng.Intn(n),
		})
		for _, ab := range variants {
			learned, _ := Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving), run.WithAblations(ab))
			if !learned.Equivalent(target) {
				t.Fatalf("ablation %+v: target %s learned as %s", ab, target, learned)
			}
		}
	}
}

// TestAblationsCostQuestions: each optimization saves questions on a
// workload designed to exercise it.
func TestAblationsCostQuestions(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const n = 12
	var full, noSeeds, serial int
	for i := 0; i < 15; i++ {
		target := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads: 2, BodiesPerHead: 2, MaxBodySize: 3, Conjs: 4, MaxConjSize: 5,
		})
		o := oracle.Target(target)
		_, st := Run(target.U, o, run.WithAlgorithm(run.RolePreserving))
		full += st.Total()
		_, st = Run(target.U, o, run.WithAlgorithm(run.RolePreserving), run.WithAblations(Ablations{NoGuaranteeSeeds: true}))
		noSeeds += st.Total()
		_, st = Run(target.U, o, run.WithAlgorithm(run.RolePreserving), run.WithAblations(Ablations{SerialPrune: true}))
		serial += st.Total()
	}
	if noSeeds <= full {
		t.Errorf("guarantee seeding saves nothing: full=%d noSeeds=%d", full, noSeeds)
	}
	if serial <= full {
		t.Errorf("binary pruning saves nothing: full=%d serial=%d", full, serial)
	}
}

// TestAblationExhaustiveTwoVars: the ablated learner is exact on the
// full two-variable class.
func TestAblationExhaustiveTwoVars(t *testing.T) {
	u := mustU(t, 2)
	for _, target := range query.AllQueries(u) {
		learned, _ := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving), run.WithAblations(Ablations{NoGuaranteeSeeds: true, SerialPrune: true}))
		if !learned.Equivalent(target) {
			t.Fatalf("target %s learned as %s", target, learned)
		}
	}
}

func mustU(t *testing.T, n int) boolean.Universe {
	t.Helper()
	return boolean.MustUniverse(n)
}
