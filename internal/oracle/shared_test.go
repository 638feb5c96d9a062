package oracle_test

import (
	"sync"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
)

// countingInner is an inner oracle that counts asks per question key.
type countingInner struct {
	mu    sync.Mutex
	asks  map[string]int
	total int
	fn    func(boolean.Set) bool
}

func newCountingInner(fn func(boolean.Set) bool) *countingInner {
	return &countingInner{asks: map[string]int{}, fn: fn}
}

func (c *countingInner) Ask(s boolean.Set) bool {
	c.mu.Lock()
	c.asks[s.Key()]++
	c.total++
	c.mu.Unlock()
	return c.fn(s)
}

func (c *countingInner) count(s boolean.Set) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.asks[s.Key()]
}

func parity(s boolean.Set) bool { return s.Size()%2 == 1 }

// TestSharedMemoServesRepeatsFromCache pins the basic contract: the
// inner oracle sees each distinct question once per identity, repeats
// are hits, and the tier metrics account for both.
func TestSharedMemoServesRepeatsFromCache(t *testing.T) {
	u := boolean.MustUniverse(5)
	reg := obs.NewRegistry()
	sm := oracle.NewSharedMemo(1024, reg)
	inner := newCountingInner(parity)
	o := sm.Oracle("alice", inner)

	qs := probeQuestions(u, 6)
	for round := 0; round < 3; round++ {
		for _, q := range qs {
			if o.Ask(q) != parity(q) {
				t.Fatalf("wrong answer for %s on round %d", q.Key(), round)
			}
		}
	}
	if inner.total != len(qs) {
		t.Errorf("inner saw %d asks, want %d", inner.total, len(qs))
	}
	if got := reg.CounterValue(obs.MetricMemoTierMisses); got != int64(len(qs)) {
		t.Errorf("misses = %d, want %d", got, len(qs))
	}
	if got := reg.CounterValue(obs.MetricMemoTierHits); got != int64(2*len(qs)) {
		t.Errorf("hits = %d, want %d", got, 2*len(qs))
	}
	if sm.Len() != len(qs) {
		t.Errorf("Len = %d, want %d", sm.Len(), len(qs))
	}
	if got := reg.Gauge(obs.MetricMemoTierSize).Value(); got != float64(len(qs)) {
		t.Errorf("size gauge = %v, want %d", got, len(qs))
	}

	// An inner oracle that runs out of budget answers nothing, so the
	// tier counts no miss and caches nothing.
	broke := sm.Oracle("alice", oracle.Func(func(boolean.Set) bool {
		panic(oracle.ErrBudget{Limit: 0})
	}))
	fresh := probeQuestions(boolean.MustUniverse(6), 2)
	for _, ask := range []func(){
		func() { broke.Ask(fresh[0]) },
		func() { oracle.AskAll(broke, fresh) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(oracle.ErrBudget); !ok {
					t.Error("budget panic did not pass through the tier")
				}
			}()
			ask()
		}()
	}
	if got := reg.CounterValue(obs.MetricMemoTierMisses); got != int64(len(qs)) {
		t.Errorf("misses = %d after a budget panic, want %d", got, len(qs))
	}
	if sm.Len() != len(qs) {
		t.Errorf("Len = %d after a budget panic, want %d", sm.Len(), len(qs))
	}
}

// TestSharedMemoBoundedEviction fills a tiny tier past capacity and
// checks the bound holds, evictions are counted, and the size gauge
// tracks the live entry count.
func TestSharedMemoBoundedEviction(t *testing.T) {
	u := boolean.MustUniverse(5)
	reg := obs.NewRegistry()
	const capacity = 4
	sm := oracle.NewSharedMemo(capacity, reg)
	if sm.Capacity() != capacity {
		t.Fatalf("Capacity = %d", sm.Capacity())
	}
	inner := newCountingInner(parity)
	o := sm.Oracle("alice", inner)

	qs := probeQuestions(u, 10)
	for _, q := range qs {
		o.Ask(q)
	}
	if sm.Len() > capacity {
		t.Errorf("Len = %d exceeds capacity %d", sm.Len(), capacity)
	}
	wantEvict := int64(len(qs) - capacity)
	if got := reg.CounterValue(obs.MetricMemoTierEvictions); got != wantEvict {
		t.Errorf("evictions = %d, want %d", got, wantEvict)
	}
	if got := reg.Gauge(obs.MetricMemoTierSize).Value(); got != float64(sm.Len()) {
		t.Errorf("size gauge = %v, Len = %d", got, sm.Len())
	}
}

// TestSharedMemoIdentityIsolation pins the per-user keying: the same
// question under two identities consults each identity's own oracle,
// and their answers never cross.
func TestSharedMemoIdentityIsolation(t *testing.T) {
	u := boolean.MustUniverse(4)
	sm := oracle.NewSharedMemo(64, nil)
	yes := newCountingInner(func(boolean.Set) bool { return true })
	no := newCountingInner(func(boolean.Set) bool { return false })
	alice := sm.Oracle("alice", yes)
	bob := sm.Oracle("bob", no)

	q := boolean.NewSet(u.All())
	if !alice.Ask(q) {
		t.Error("alice's oracle answers true")
	}
	if bob.Ask(q) {
		t.Error("bob got alice's cached answer")
	}
	if yes.total != 1 || no.total != 1 {
		t.Errorf("inner asks alice=%d bob=%d, want 1 each", yes.total, no.total)
	}
	// Repeats hit each identity's own entry.
	if !alice.Ask(q) || bob.Ask(q) {
		t.Error("cached answers crossed identities")
	}
	if yes.total != 1 || no.total != 1 {
		t.Error("repeat consulted an inner oracle")
	}
}

// TestSharedMemoUpdatePropagatesCorrection pins the amendment hook:
// Update overwrites a cached answer in place so later sessions of the
// same identity see the correction without re-asking.
func TestSharedMemoUpdatePropagatesCorrection(t *testing.T) {
	u := boolean.MustUniverse(4)
	sm := oracle.NewSharedMemo(64, nil)
	inner := newCountingInner(func(boolean.Set) bool { return true })
	o := sm.Oracle("alice", inner)

	q := boolean.NewSet(u.All())
	if !o.Ask(q) {
		t.Fatal("initial answer")
	}
	sm.Update("alice", q, false)
	if o.Ask(q) {
		t.Error("correction not served")
	}
	if inner.total != 1 {
		t.Errorf("inner asked %d times, want 1 (update must not invalidate)", inner.total)
	}
	// Update of a never-asked question inserts it.
	q2 := boolean.NewSet(u.All().Without(0))
	sm.Update("alice", q2, true)
	if !o.Ask(q2) || inner.count(q2) != 0 {
		t.Error("inserted update not served from cache")
	}
}

// TestSharedMemoColdBatchForwardsInOrder pins the batch path: a cold
// tier forwards the whole batch as one sub-batch, in original order —
// the bit-identity precondition for serve sessions.
func TestSharedMemoColdBatchForwardsInOrder(t *testing.T) {
	u := boolean.MustUniverse(5)
	sm := oracle.NewSharedMemo(1024, nil)
	var batches [][]string
	inner := batchRecorder{batches: &batches}
	o := sm.Oracle("alice", inner)

	qs := probeQuestions(u, 4)
	batch := []boolean.Set{qs[2], qs[0], qs[3], qs[1]}
	answers := oracle.AskAll(o, batch)
	for i, q := range batch {
		if answers[i] != parity(q) {
			t.Errorf("answer %d wrong", i)
		}
	}
	if len(batches) != 1 {
		t.Fatalf("inner saw %d batches, want 1", len(batches))
	}
	want := []string{qs[2].Key(), qs[0].Key(), qs[3].Key(), qs[1].Key()}
	if len(batches[0]) != len(want) {
		t.Fatalf("sub-batch = %v, want %v", batches[0], want)
	}
	for i := range want {
		if batches[0][i] != want[i] {
			t.Fatalf("sub-batch order = %v, want %v", batches[0], want)
		}
	}
	// A warm repeat of the same batch never reaches the inner oracle.
	oracle.AskAll(o, batch)
	if len(batches) != 1 {
		t.Errorf("warm batch consulted the inner oracle: %d batches", len(batches))
	}
}

// batchRecorder records the sub-batches an inner BatchOracle sees.
type batchRecorder struct{ batches *[][]string }

func (b batchRecorder) Ask(s boolean.Set) bool { return parity(s) }

func (b batchRecorder) AskBatch(qs []boolean.Set) []bool {
	keys := make([]string, len(qs))
	answers := make([]bool, len(qs))
	for i, q := range qs {
		keys[i] = q.Key()
		answers[i] = parity(q)
	}
	*b.batches = append(*b.batches, keys)
	return answers
}

// TestSharedMemoNilTierPassesThrough: a nil *SharedMemo degrades to
// the inner oracle and ignores updates, so callers can wire the tier
// unconditionally.
func TestSharedMemoNilTierPassesThrough(t *testing.T) {
	inner := newCountingInner(parity)
	var sm *oracle.SharedMemo
	if o := sm.Oracle("alice", inner); o != oracle.Oracle(inner) {
		t.Error("nil tier did not return inner unchanged")
	}
	sm.Update("alice", boolean.NewSet(), true) // a no-op, not a nil dereference
}

// TestSharedMemoConcurrentSessionsRaceClean hammers one tier from
// many wrappers — same identity, distinct identities, serial and
// batch — under -race. Every answer must be right, and the misses
// must count exactly the inner asks made: sessions racing on one
// question may each ask their own oracle, but nothing is lost or
// double-counted.
func TestSharedMemoConcurrentSessionsRaceClean(t *testing.T) {
	u := boolean.MustUniverse(6)
	reg := obs.NewRegistry()
	sm := oracle.NewSharedMemo(1<<16, reg)
	qs := probeQuestions(u, 16)
	inners := map[string]*countingInner{
		"alice": newCountingInner(parity),
		"bob":   newCountingInner(parity),
	}

	var wg sync.WaitGroup
	for id, inner := range inners {
		for g := 0; g < 8; g++ {
			o := sm.Oracle(id, inner) // one wrapper per simulated session
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 0 {
					for i, a := range oracle.AskAll(o, qs) {
						if a != parity(qs[i]) {
							t.Errorf("torn batch answer for %s", qs[i].Key())
						}
					}
					return
				}
				for r := 0; r < 40; r++ {
					q := qs[(g+r)%len(qs)]
					if o.Ask(q) != parity(q) {
						t.Errorf("torn answer for %s", q.Key())
					}
				}
			}(g)
		}
	}
	wg.Wait()
	var asked int64
	for _, inner := range inners {
		asked += int64(inner.total)
	}
	if got := reg.CounterValue(obs.MetricMemoTierMisses); got != asked {
		t.Errorf("misses = %d, inner asks = %d", got, asked)
	}
}

// TestSharedMemoConcurrentEvictionRaceClean hammers a tier far past
// its capacity from concurrent sessions; under -race this pins the
// lock discipline of the eviction path, and the bound must hold at
// quiescence.
func TestSharedMemoConcurrentEvictionRaceClean(t *testing.T) {
	u := boolean.MustUniverse(8)
	reg := obs.NewRegistry()
	const capacity = 32
	sm := oracle.NewSharedMemo(capacity, reg)
	inner := newCountingInner(parity)
	qs := probeQuestions(u, 200)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		o := sm.Oracle("alice", inner)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for _, q := range qs {
					if o.Ask(q) != parity(q) {
						t.Errorf("torn answer for %s", q.Key())
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if sm.Len() > capacity {
		t.Errorf("Len = %d exceeds capacity %d", sm.Len(), capacity)
	}
	if got := reg.Gauge(obs.MetricMemoTierSize).Value(); got != float64(sm.Len()) {
		t.Errorf("size gauge = %v, Len = %d", got, sm.Len())
	}
}

// TestSharedMemoInsertAllocs: once a tier has grown to its capacity,
// storing a new answer, through a miss or through Update, allocates
// nothing of its own. Each generation's arena, entries and table are
// reused once it has grown, as the generations swap, so a million
// stored answers cost the same few allocations as a thousand.
func TestSharedMemoInsertAllocs(t *testing.T) {
	const capacity = 256
	u := boolean.MustUniverse(12)
	qs := make([]boolean.Set, 8192)
	for i := range qs {
		qs[i] = boolean.NewSet(boolean.Tuple(i), boolean.Tuple(i+1), u.All())
	}
	sm := oracle.NewSharedMemo(capacity, obs.NewRegistry())
	o := sm.Oracle("alice", oracle.Func(parity))
	next := 0
	for ; next < 8*capacity; next++ { // warm: grow to capacity and swap a few times
		o.Ask(qs[next])
	}
	const runs = 2048
	for _, path := range []struct {
		name  string
		store func(boolean.Set)
	}{
		{"a miss", func(q boolean.Set) { o.Ask(q) }},
		{"Update", func(q boolean.Set) { sm.Update("alice", q, true) }},
	} {
		// AllocsPerRun makes one warm-up call before its runs.
		if n := testing.AllocsPerRun(runs, func() { path.store(qs[next]); next++ }); n >= 1 {
			t.Errorf("storing a new answer in a warm tier through %s allocates %v times, want under 1 amortized", path.name, n)
		}
	}
	if next != 8*capacity+2*(runs+1) || sm.Len() != capacity {
		t.Fatalf("stored %d answers, Len = %d; want %d stored, Len %d", next, sm.Len(), 8*capacity+2*(runs+1), capacity)
	}
}
