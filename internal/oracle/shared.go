package oracle

// The shared memo tier: a bounded, concurrency-safe, cross-session
// answer cache. Where a run's own history (internal/session) lives and
// dies with one session, a SharedMemo outlives sessions — a qhornd
// server owns one and threads it under every session of the same
// oracle identity, so a user whose target drifts by a clause replays
// the settled part of the lattice for free instead of re-answering it
// over the wire.
//
// Entries are keyed by (identity, question). The identity names a
// user/target intent; distinct identities never share answers, so one
// server-wide tier gives per-user isolation under one global memory
// bound. The tier is one table under one mutex, evicting the oldest
// answer first once full. The lock is never held while the inner
// oracle is asked, and nothing is ever in flight: concurrent sessions
// of one identity each ask their own client, and their answers meet
// in the tier once recorded.
//
// The tier lives as long as the server and grows to its bound, so it
// stores no pointer per answer, and the garbage collector has nothing
// in it to mark. Its answers sit in two append-only generations, old
// and cur, each answer in old older than any in cur. In each, keys sit
// back to back in one byte arena; one entry per answer records where
// its key ends and the answer; and a hashindex.Index over a seeded
// hash of the key finds the entry, every hash match confirmed on the
// key bytes. New answers go to cur, and eviction counts off old's
// oldest. Once cur is full, old has no live answer left: it is emptied,
// keeping its storage, and the two swap places. No entry or key byte
// is ever moved.

import (
	"bytes"
	"encoding/binary"
	"sync"

	"qhorn/internal/boolean"
	"qhorn/internal/hashindex"
	"qhorn/internal/obs"
)

// SharedMemo is the bounded cross-session answer cache. Construct
// with NewSharedMemo; the zero value is not usable. All methods are
// safe for concurrent use, and a nil *SharedMemo is a disabled tier:
// Oracle returns its inner oracle unchanged and Update does nothing.
//
// Memory: a cached answer costs its key (the length-prefixed identity
// and a uvarint per tuple, 2 bytes a tuple at up to 14 variables), an
// 8-byte entry, an 8-byte hash and 2–4 table slots of 4 bytes. On
// 100,000 role-preserving questions at 11–13 variables (3.7 tuples
// and an 11-byte identity each) the tier held 50 bytes per answer in 6
// heap objects; a map of string keys held 101 bytes per answer in
// 100,260 objects. Each generation holds at most capacity answers,
// evicted ones included, so a full tier holds at most twice capacity,
// and the default qhornd capacity of 2²⁰ answers takes at most about
// 100 MB at that size, none of which the garbage collector scans.
type SharedMemo struct {
	capacity int
	// The tier's metric handles, resolved once by NewSharedMemo.
	hits, misses, evictions *obs.Counter
	size                    *obs.Gauge

	mu       sync.Mutex
	old, cur generation
	evicted  int    // old.entries[:evicted] are evicted
	key      []byte // scratch for keyOf
}

// generation is one append-only run of cached answers, oldest first.
type generation struct {
	keys    []byte          // arena: entry keys back to back
	entries []entry         // cached answers
	index   hashindex.Index // entries[p] is recorded under position p
}

// entry is one cached answer in 8 bytes: the end of its key in the
// arena, shifted left by one, with the answer in the low bit. Its key
// is keys[start:end], where start is the previous entry's end, or 0
// for the first entry.
type entry uint64

func newEntry(end int, answer bool) entry {
	e := entry(end) << 1
	if answer {
		e |= 1
	}
	return e
}

func (e entry) end() int     { return int(e >> 1) }
func (e entry) answer() bool { return e&1 == 1 }

// find returns the position of the entry keyed k, whose hash is h,
// among the entries from position from on.
func (g *generation) find(h uint64, k []byte, from int) (int32, bool) {
	return g.index.Find(h, func(p int32) bool {
		start := 0
		if p > 0 {
			start = g.entries[p-1].end()
		}
		return int(p) >= from && bytes.Equal(g.keys[start:g.entries[p].end()], k)
	})
}

// NewSharedMemo returns a shared memo tier bounded to capacity cached
// answers (clamped to at least 1). A non-nil registry receives the
// tier accounting: qhornd_memo_hits_total, qhornd_memo_misses_total,
// qhornd_memo_evictions_total and the qhornd_memo_size gauge.
func NewSharedMemo(capacity int, reg *obs.Registry) *SharedMemo {
	return &SharedMemo{
		capacity:  max(capacity, 1),
		hits:      reg.Counter(obs.MetricMemoTierHits),
		misses:    reg.Counter(obs.MetricMemoTierMisses),
		evictions: reg.Counter(obs.MetricMemoTierEvictions),
		size:      reg.Gauge(obs.MetricMemoTierSize),
	}
}

// Capacity returns the bound the tier was constructed with.
func (sm *SharedMemo) Capacity() int { return sm.capacity }

// Len returns the number of answers currently cached across all
// identities.
func (sm *SharedMemo) Len() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.old.index.Len() - sm.evicted + sm.cur.index.Len()
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
	sm.mu.Lock()
	sm.put(sm.keyOf(identity, s), answer)
	sm.mu.Unlock()
}

// Oracle returns an oracle that serves questions for the given
// identity from the tier, forwarding misses to inner. The returned
// wrapper implements BatchOracle: a batch is answered from the cache
// where possible and the misses are forwarded to inner as one
// sub-batch in original order — so with a cold tier the inner oracle
// sees exactly the batches it would have seen without the tier
// (bit-identity), and with a warm tier it only ever sees fewer
// questions. The wrapper does not deduplicate a batch: its one caller
// on a served path, session.Session.AskBatch, already sends down only
// distinct questions it has not recorded. A nil *SharedMemo returns
// inner unchanged.
func (sm *SharedMemo) Oracle(identity string, inner Oracle) Oracle {
	if sm == nil {
		return inner
	}
	return &tierOracle{sm: sm, identity: identity, inner: inner}
}

// keyOf returns the key of s under identity: the identity's length as
// a uvarint, the identity, then s.AppendID (a uvarint per tuple).
// Uvarints are self-delimiting, so no two (identity, question) pairs
// share a key whatever bytes the identity holds. The result aliases
// the scratch buffer until the next call. Caller holds mu.
func (sm *SharedMemo) keyOf(identity string, s boolean.Set) []byte {
	k := binary.AppendUvarint(sm.key[:0], uint64(len(identity)))
	sm.key = s.AppendID(append(k, identity...))
	return sm.key
}

// find returns the live entry keyed k, whose hash is h, or nil.
// Caller holds mu.
func (sm *SharedMemo) find(h uint64, k []byte) *entry {
	if p, ok := sm.cur.find(h, k, 0); ok {
		return &sm.cur.entries[p]
	}
	if p, ok := sm.old.find(h, k, sm.evicted); ok {
		return &sm.old.entries[p]
	}
	return nil
}

// get returns the cached answer for key k, if any. Caller holds mu.
func (sm *SharedMemo) get(k []byte) (answer, ok bool) {
	e := sm.find(hashindex.Sum(k), k)
	return e != nil && e.answer(), e != nil
}

// put inserts or overwrites the answer for key k, evicting the oldest
// answer when over capacity. Caller holds mu.
//
// Only a full tier has answers in old: the first swap comes when cur
// fills, and every answer added from then on evicts old's oldest, so
// old runs out of live answers exactly when cur is full again.
func (sm *SharedMemo) put(k []byte, answer bool) {
	h := hashindex.Sum(k)
	if e := sm.find(h, k); e != nil {
		*e = newEntry(e.end(), answer)
		return
	}
	if len(sm.cur.entries) == sm.capacity {
		sm.old, sm.cur, sm.evicted = sm.cur, sm.old, 0
		sm.cur.keys, sm.cur.entries = sm.cur.keys[:0], sm.cur.entries[:0]
		sm.cur.index.Reset()
	}
	g := &sm.cur
	g.index.Add(h)
	g.keys = append(g.keys, k...)
	g.entries = append(g.entries, newEntry(len(g.keys), answer))
	if sm.evicted < len(sm.old.entries) {
		sm.evicted++
		sm.evictions.Inc()
	} else {
		sm.size.Add(1)
	}
}

// tierOracle adapts one (identity, inner) pair to the Oracle and
// BatchOracle interfaces over the shared tier. Hits are counted when
// a question is served from the cache; misses only once inner
// answered, so a panicking inner oracle (budget, abort) counts and
// caches nothing.
type tierOracle struct {
	sm       *SharedMemo
	identity string
	inner    Oracle
}

// Ask implements Oracle.
func (o *tierOracle) Ask(s boolean.Set) bool {
	sm := o.sm
	sm.mu.Lock()
	a, ok := sm.get(sm.keyOf(o.identity, s))
	sm.mu.Unlock()
	if ok {
		sm.hits.Inc()
		return a
	}
	a = o.inner.Ask(s)
	sm.misses.Inc()
	sm.mu.Lock()
	sm.put(sm.keyOf(o.identity, s), a)
	sm.mu.Unlock()
	return a
}

// AskBatch implements BatchOracle: cached questions are answered from
// the tier and the rest are forwarded to the inner oracle as one
// sub-batch in original order.
func (o *tierOracle) AskBatch(qs []boolean.Set) []bool {
	sm := o.sm
	answers := make([]bool, len(qs))
	var missed []int
	sm.mu.Lock()
	for i, q := range qs {
		if a, ok := sm.get(sm.keyOf(o.identity, q)); ok {
			answers[i] = a
		} else {
			missed = append(missed, i)
		}
	}
	sm.mu.Unlock()
	if hits := len(qs) - len(missed); hits > 0 {
		sm.hits.Add(int64(hits))
	}
	if len(missed) == 0 {
		return answers
	}
	sub := make([]boolean.Set, len(missed))
	for j, i := range missed {
		sub[j] = qs[i]
	}
	res := AskAll(o.inner, sub)
	sm.misses.Add(int64(len(missed)))
	sm.mu.Lock()
	for j, i := range missed {
		answers[i] = res[j]
		sm.put(sm.keyOf(o.identity, qs[i]), res[j])
	}
	sm.mu.Unlock()
	return answers
}
