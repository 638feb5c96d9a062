package oracle

import (
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/query"
)

func TestBudgetIntoShedCounter(t *testing.T) {
	u := boolean.MustUniverse(3)
	reg := obs.NewRegistry()
	b := WithBudget(Target(query.MustParse(u, "∃x1")), 2, reg)
	q := boolean.MustParseSet(u, "{100}")

	b.Ask(q)
	b.Ask(q)
	func() {
		defer func() {
			if _, ok := recover().(ErrBudget); !ok {
				t.Error("exhausted budget did not panic with ErrBudget")
			}
		}()
		b.Ask(q)
	}()
	if got := reg.CounterValue(obs.MetricBudgetSheds); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}
}

func TestBudgetIntoBatchShedCounter(t *testing.T) {
	u := boolean.MustUniverse(3)
	reg := obs.NewRegistry()
	b := WithBudget(Target(query.MustParse(u, "∃x1")), 2, reg)
	qs := make([]boolean.Set, 5)
	for i := range qs {
		qs[i] = boolean.MustParseSet(u, "{100}")
	}
	func() {
		defer func() {
			if _, ok := recover().(ErrBudget); !ok {
				t.Error("overrun batch did not panic with ErrBudget")
			}
		}()
		b.AskBatch(qs)
	}()
	// 2 of 5 fit the budget; the other 3 were shed.
	if got := reg.CounterValue(obs.MetricBudgetSheds); got != 3 {
		t.Errorf("sheds = %d, want 3", got)
	}
	if b.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", b.Remaining())
	}
}
