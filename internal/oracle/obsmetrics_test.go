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

func TestPoolBatchRecordsPerAskLatency(t *testing.T) {
	u := boolean.MustUniverse(4)
	reg := obs.NewRegistry()
	p := Parallel(Target(query.MustParse(u, "∃x1")), 2, reg)
	var qs []boolean.Set
	for _, s := range []string{"{1000}", "{0100}", "{0010}", "{0001}", "{1100}", "{0110}"} {
		qs = append(qs, boolean.MustParseSet(u, s))
	}

	p.AskBatch(qs)
	h := reg.Histogram(obs.MetricOracleAskSeconds, obs.LatencyBuckets)
	if got := h.Count(); got != 6 {
		t.Errorf("ask-latency samples after batch = %d, want 6 (one per question)", got)
	}
	// Serial asks through the pool are not double-timed here — the
	// Counter at the top of the stack owns the serial ask latency.
	p.Ask(qs[0])
	if got := h.Count(); got != 6 {
		t.Errorf("ask-latency samples after serial ask = %d, want 6 still", got)
	}
	if got := reg.Histogram(obs.MetricBatchSeconds, obs.LatencyBuckets).Count(); got != 1 {
		t.Errorf("batch-latency samples = %d, want 1", got)
	}
}
