package oracle_test

import (
	"errors"
	"math/rand"
	"testing"

	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// TestBudgetCoversGeneratedQueries: a budget of twice the advertised
// estimate never trips for generated targets — the same 2× bound the
// differential fuzz engine enforces as its budget judge, exercised
// here at the oracle layer where ErrBudget actually fires.
func TestBudgetCoversGeneratedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 30; i++ {
		n := 2 + rng.Intn(7)
		target := query.GenQhorn1(rng, n)
		budgeted := oracle.WithBudget(oracle.Target(target), 2*learn.EstimateQhorn1(n), nil)
		func() {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if ok && errors.As(err, &oracle.ErrBudget{}) {
						t.Errorf("n=%d target %s: budget tripped: %v", n, target, err)
						return
					}
					panic(r)
				}
			}()
			learned, _ := learn.Run(target.U, budgeted)
			if !learned.Equivalent(target) {
				t.Errorf("learned %s for %s", learned, target)
			}
		}()
	}
}
