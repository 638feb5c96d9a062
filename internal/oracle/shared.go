package oracle

// The shared memo tier: a bounded, concurrency-safe, cross-session
// answer cache. Where a run's own history (internal/session) lives and
// dies with one session, a SharedMemo outlives sessions — a qhornd
// server owns one and threads it under every session of the same
// oracle identity, so a user whose target drifts by a clause replays
// the settled part of the lattice for free instead of re-answering it
// over the wire.
//
// Entries are keyed by (identity, canonical boolean.Set.Key). The
// identity names a user/target intent; distinct identities never
// share answers, so one server-wide tier gives per-user isolation
// under one global memory bound. Replacement is 2Q-style segmented
// LRU — new answers enter a probation segment and are promoted to a
// protected segment on re-use — which keeps one-shot question sweeps
// from flushing the hot working set. Locks are sharded by key hash so
// concurrent sessions rarely contend, and the tier is singleflight
// across sessions: when two sessions of the same identity pose the
// same question concurrently, one leads and the other waits for its
// answer.

import (
	"sync"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
)

// memoKeySep joins identity and question key; it cannot appear in
// either (identities are caller-chosen strings without control
// characters by convention, Set.Key is lowercase hex digits and
// commas).
const memoKeySep = "\x1f"

// SharedMemo is the bounded cross-session answer cache. Construct
// with NewSharedMemo; the zero value is not usable. All methods are
// safe for concurrent use, and a nil *SharedMemo is a disabled tier:
// Oracle returns its inner oracle unchanged and Update does nothing.
//
// Memory: each cached answer costs one small heap entry plus its key
// string (roughly 100–200 bytes at production tuple sizes), so the
// default qhornd capacity of 1M entries holds a few hundred MB and
// capacities in the millions are practical.
type SharedMemo struct {
	reg      *obs.Registry
	shards   []memoShard
	mask     uint64
	capacity int
}

// NewSharedMemo returns a shared memo tier bounded to capacity cached
// answers (clamped to at least 1). A non-nil registry receives the
// tier accounting: qhornd_memo_hits_total, qhornd_memo_misses_total,
// qhornd_memo_evictions_total and the qhornd_memo_size gauge.
func NewSharedMemo(capacity int, reg *obs.Registry) *SharedMemo {
	if capacity < 1 {
		capacity = 1
	}
	n := memoShardCount(capacity)
	sm := &SharedMemo{
		reg:      reg,
		shards:   make([]memoShard, n),
		mask:     uint64(n - 1),
		capacity: capacity,
	}
	perShard := (capacity + n - 1) / n
	// The protected segment takes ≈ 75% of the shard; probation keeps
	// at least one slot so a full protected segment can never starve
	// new admissions (put evicts from probation first).
	probation := perShard / 4
	if probation < 1 {
		probation = 1
	}
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.cap = perShard
		sh.protCap = perShard - probation
		sh.entries = map[string]*memoEntry{}
		sh.inflight = map[string]chan struct{}{}
	}
	return sm
}

// memoShardCount picks a power-of-two shard count: one shard per 64
// entries of capacity, capped at 64 shards. Small caches (tests,
// -memo-capacity tuning) collapse to one shard, which makes the
// eviction order globally exact.
func memoShardCount(capacity int) int {
	n := 1
	for n < 64 && n*64 <= capacity {
		n <<= 1
	}
	return n
}

// Capacity returns the bound the tier was constructed with.
func (sm *SharedMemo) Capacity() int { return sm.capacity }

// Len returns the number of answers currently cached across all
// shards and identities.
func (sm *SharedMemo) Len() int {
	n := 0
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Update inserts or overwrites the cached answer for (identity, s).
// The amendment path uses it to propagate a user's correction into
// the tier, so later sessions of the same identity see the corrected
// answer instead of the stale one. On a nil (disabled) tier it does
// nothing.
func (sm *SharedMemo) Update(identity string, s boolean.Set, answer bool) {
	if sm == nil {
		return
	}
	k := identity + memoKeySep + s.Key()
	sh := sm.shard(k)
	sh.mu.Lock()
	sh.put(k, answer, sm)
	sh.mu.Unlock()
}

// Oracle returns an oracle that serves questions for the given
// identity from the tier, forwarding misses to inner. The returned
// wrapper implements BatchOracle: a batch is answered from the cache
// where possible and the remaining distinct questions are forwarded
// to inner as one deduplicated sub-batch in original order — so with
// a cold tier the inner oracle sees exactly the batches it would have
// seen without the tier (bit-identity), and with a warm tier it only
// ever sees fewer questions. A nil *SharedMemo returns inner
// unchanged.
func (sm *SharedMemo) Oracle(identity string, inner Oracle) Oracle {
	if sm == nil {
		return inner
	}
	return &tierOracle{sm: sm, prefix: identity + memoKeySep, inner: inner}
}

func (sm *SharedMemo) shard(k string) *memoShard {
	// FNV-1a over the full key; identity lands in the hash so the
	// same question under different identities spreads across shards.
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return &sm.shards[h&sm.mask]
}

// memoEntry is one cached answer, threaded on an intrusive list of
// its segment (probation or protected).
type memoEntry struct {
	key        string
	answer     bool
	protected  bool
	prev, next *memoEntry
}

// memoList is an intrusive doubly-linked list, most recent at front.
type memoList struct {
	front, back *memoEntry
	n           int
}

func (l *memoList) pushFront(e *memoEntry) {
	e.prev, e.next = nil, l.front
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
	l.n++
}

func (l *memoList) remove(e *memoEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

// memoShard is one lock domain of the tier: a bounded segmented-LRU
// answer map plus the in-flight singleflight markers for its keys.
type memoShard struct {
	mu        sync.Mutex
	cap       int
	protCap   int
	entries   map[string]*memoEntry
	probation memoList
	protected memoList
	inflight  map[string]chan struct{}
}

// lookup returns the cached answer for k and records the use (2Q
// promotion). Caller holds mu.
func (sh *memoShard) lookup(k string) (answer, ok bool) {
	e := sh.entries[k]
	if e == nil {
		return false, false
	}
	sh.touch(e)
	return e.answer, true
}

// touch moves e to the most-recent position: protected entries to the
// protected front, probation entries up into the protected segment
// (demoting its LRU entry back to probation if the segment is full).
// Caller holds mu.
func (sh *memoShard) touch(e *memoEntry) {
	if e.protected {
		sh.protected.remove(e)
		sh.protected.pushFront(e)
		return
	}
	sh.probation.remove(e)
	e.protected = true
	sh.protected.pushFront(e)
	if sh.protected.n > sh.protCap {
		d := sh.protected.back
		sh.protected.remove(d)
		d.protected = false
		sh.probation.pushFront(d)
	}
}

// put inserts or overwrites the answer for k, evicting the shard's
// least valuable entry when over capacity. Caller holds mu.
func (sh *memoShard) put(k string, answer bool, sm *SharedMemo) {
	if e := sh.entries[k]; e != nil {
		e.answer = answer
		sh.touch(e)
		return
	}
	e := &memoEntry{key: k, answer: answer}
	sh.entries[k] = e
	sh.probation.pushFront(e)
	sm.reg.Gauge(obs.MetricMemoTierSize).Add(1)
	if len(sh.entries) > sh.cap {
		victim := sh.probation.back
		if victim != nil {
			sh.probation.remove(victim)
		} else {
			victim = sh.protected.back
			sh.protected.remove(victim)
		}
		delete(sh.entries, victim.key)
		sm.reg.Counter(obs.MetricMemoTierEvictions).Inc()
		sm.reg.Gauge(obs.MetricMemoTierSize).Add(-1)
	}
}

// tierOracle adapts one (identity, inner) pair to the Oracle and
// BatchOracle interfaces over the shared tier. The singleflight
// protocol runs per shard: hits are counted when a
// question is served from the cache or by joining another session's
// flight; misses only once an answer is actually obtained, so a
// panicking leader (budget, abort) leaves the count untouched and a
// retrying waiter re-elects a leader without inflating it.
type tierOracle struct {
	sm     *SharedMemo
	prefix string
	inner  Oracle
}

// Ask implements Oracle.
func (o *tierOracle) Ask(s boolean.Set) bool {
	k := o.prefix + s.Key()
	sh := o.sm.shard(k)
	for {
		sh.mu.Lock()
		if a, ok := sh.lookup(k); ok {
			sh.mu.Unlock()
			o.sm.reg.Counter(obs.MetricMemoTierHits).Inc()
			return a
		}
		if ch, ok := sh.inflight[k]; ok {
			// Another session of this identity is asking this exact
			// question: wait for its answer instead of double-asking.
			sh.mu.Unlock()
			<-ch
			// Answered — or the leader panicked, in which case the
			// retry elects a new leader.
			continue
		}
		ch := make(chan struct{})
		sh.inflight[k] = ch
		sh.mu.Unlock()
		return o.lead(sh, k, ch, s)
	}
}

// lead asks the inner oracle on behalf of every session waiting on
// key k, then wakes the waiters. The in-flight marker is removed even
// when the inner oracle panics, so no waiter is stranded — crucially,
// an aborted session's flights settle and the waiting sessions fall
// back to their own wire.
func (o *tierOracle) lead(sh *memoShard, k string, ch chan struct{}, s boolean.Set) bool {
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, k)
		sh.mu.Unlock()
		close(ch)
	}()
	a := o.inner.Ask(s)
	o.sm.reg.Counter(obs.MetricMemoTierMisses).Inc()
	sh.mu.Lock()
	sh.put(k, a, o.sm)
	sh.mu.Unlock()
	return a
}

// AskBatch implements BatchOracle: cached questions are answered from
// the tier, duplicates of questions already in flight wait for the
// existing asker, and the remaining distinct questions are forwarded
// to the inner oracle as one deduplicated sub-batch in original
// order.
func (o *tierOracle) AskBatch(qs []boolean.Set) []bool {
	keys := make([]string, len(qs))
	for i, q := range qs {
		keys[i] = o.prefix + q.Key()
	}
	answers := make([]bool, len(qs))
	pending := make([]int, len(qs))
	for i := range qs {
		pending[i] = i
	}
	// missed marks questions this batch led to the inner oracle, so
	// their own cache resolution on the next pass is not also a hit.
	missed := make([]bool, len(qs))
	var hits int64
	for len(pending) > 0 {
		var (
			still   []int           // unresolved after the cache pass
			leaders []int           // first unresolved index per new key
			chans   []chan struct{} // their in-flight markers
			wait    chan struct{}   // another asker's flight to await
		)
		led := map[string]bool{}
		for _, i := range pending {
			k := keys[i]
			if led[k] {
				still = append(still, i)
				continue
			}
			sh := o.sm.shard(k)
			sh.mu.Lock()
			var a, ok bool
			if missed[i] {
				// This batch led the question itself: read the stored
				// answer without touching recency, so settling one's
				// own miss does not promote the entry out of probation.
				if e := sh.entries[k]; e != nil {
					a, ok = e.answer, true
				}
			} else {
				a, ok = sh.lookup(k)
			}
			if ok {
				sh.mu.Unlock()
				answers[i] = a
				if !missed[i] {
					hits++
				}
				continue
			}
			if ch, ok := sh.inflight[k]; ok {
				sh.mu.Unlock()
				still = append(still, i)
				if wait == nil {
					wait = ch
				}
				continue
			}
			ch := make(chan struct{})
			sh.inflight[k] = ch
			sh.mu.Unlock()
			led[k] = true
			still = append(still, i)
			leaders = append(leaders, i)
			chans = append(chans, ch)
			missed[i] = true
		}
		switch {
		case len(leaders) > 0:
			o.leadBatch(keys, leaders, chans, qs)
		case wait != nil:
			<-wait
		}
		pending = still
	}
	if hits > 0 {
		o.sm.reg.Counter(obs.MetricMemoTierHits).Add(hits)
	}
	return answers
}

// leadBatch asks the inner oracle the deduplicated sub-batch at the
// given leader indices and settles their flights. Misses are counted
// only after the inner oracle actually answered.
func (o *tierOracle) leadBatch(keys []string, leaders []int, chans []chan struct{}, qs []boolean.Set) {
	defer func() {
		for j, i := range leaders {
			sh := o.sm.shard(keys[i])
			sh.mu.Lock()
			delete(sh.inflight, keys[i])
			sh.mu.Unlock()
			close(chans[j])
		}
	}()
	sub := make([]boolean.Set, len(leaders))
	for j, i := range leaders {
		sub[j] = qs[i]
	}
	res := AskAll(o.inner, sub)
	o.sm.reg.Counter(obs.MetricMemoTierMisses).Add(int64(len(leaders)))
	for j, i := range leaders {
		sh := o.sm.shard(keys[i])
		sh.mu.Lock()
		sh.put(keys[i], res[j], o.sm)
		sh.mu.Unlock()
	}
}
