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
// bound. The tier is one map under one mutex, evicting the oldest
// answer first once full. The lock is never held while the inner
// oracle is asked, and nothing is ever in flight: concurrent sessions
// of one identity each ask their own client, and their answers meet
// in the tier once recorded.

import (
	"encoding/binary"
	"sync"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
)

// SharedMemo is the bounded cross-session answer cache. Construct
// with NewSharedMemo; the zero value is not usable. All methods are
// safe for concurrent use, and a nil *SharedMemo is a disabled tier:
// Oracle returns its inner oracle unchanged and Update does nothing.
//
// Memory: each cached answer costs one map entry plus its key string
// (the identity and 8 bytes per tuple), roughly 100–300 bytes at
// production tuple sizes, so the default qhornd capacity of 1M entries
// holds a few hundred MB.
type SharedMemo struct {
	reg      *obs.Registry
	capacity int

	mu      sync.Mutex
	answers map[string]bool
	order   []string // keys of answers, oldest first
	key     []byte   // scratch for keyOf
}

// NewSharedMemo returns a shared memo tier bounded to capacity cached
// answers (clamped to at least 1). A non-nil registry receives the
// tier accounting: qhornd_memo_hits_total, qhornd_memo_misses_total,
// qhornd_memo_evictions_total and the qhornd_memo_size gauge.
func NewSharedMemo(capacity int, reg *obs.Registry) *SharedMemo {
	return &SharedMemo{reg: reg, capacity: max(capacity, 1), answers: map[string]bool{}}
}

// Capacity returns the bound the tier was constructed with.
func (sm *SharedMemo) Capacity() int { return sm.capacity }

// Len returns the number of answers currently cached across all
// identities.
func (sm *SharedMemo) Len() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.answers)
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
	sm.put(sm.keyOf(identityPrefix(identity), s), answer)
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
	return &tierOracle{sm: sm, prefix: identityPrefix(identity), inner: inner}
}

// identityPrefix length-prefixes identity, so that no two (identity,
// question) pairs share a key whatever bytes the identity holds.
func identityPrefix(identity string) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(identity))), identity...)
}

// keyOf returns the map key of s under an identity prefix: the prefix
// followed by s.AppendID, the bytes the session history hashes. The
// result aliases the scratch buffer until the next call. Caller holds
// mu.
func (sm *SharedMemo) keyOf(prefix []byte, s boolean.Set) []byte {
	sm.key = s.AppendID(append(sm.key[:0], prefix...))
	return sm.key
}

// put inserts or overwrites the answer for key k, evicting the oldest
// entry when over capacity. Caller holds mu.
func (sm *SharedMemo) put(k []byte, answer bool) {
	ks := string(k)
	_, had := sm.answers[ks]
	sm.answers[ks] = answer
	if had {
		return
	}
	sm.order = append(sm.order, ks)
	sm.reg.Gauge(obs.MetricMemoTierSize).Add(1)
	if len(sm.answers) > sm.capacity {
		delete(sm.answers, sm.order[0])
		sm.order[0] = ""
		sm.order = sm.order[1:]
		sm.reg.Counter(obs.MetricMemoTierEvictions).Inc()
		sm.reg.Gauge(obs.MetricMemoTierSize).Add(-1)
	}
}

// tierOracle adapts one (identity, inner) pair to the Oracle and
// BatchOracle interfaces over the shared tier. Hits are counted when
// a question is served from the cache; misses only once inner
// answered, so a panicking inner oracle (budget, abort) counts and
// caches nothing.
type tierOracle struct {
	sm     *SharedMemo
	prefix []byte
	inner  Oracle
}

// Ask implements Oracle.
func (o *tierOracle) Ask(s boolean.Set) bool {
	sm := o.sm
	sm.mu.Lock()
	a, ok := sm.answers[string(sm.keyOf(o.prefix, s))]
	sm.mu.Unlock()
	if ok {
		sm.reg.Counter(obs.MetricMemoTierHits).Inc()
		return a
	}
	a = o.inner.Ask(s)
	sm.reg.Counter(obs.MetricMemoTierMisses).Inc()
	sm.mu.Lock()
	sm.put(sm.keyOf(o.prefix, s), a)
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
		a, ok := sm.answers[string(sm.keyOf(o.prefix, q))]
		if ok {
			answers[i] = a
		} else {
			missed = append(missed, i)
		}
	}
	sm.mu.Unlock()
	if hits := len(qs) - len(missed); hits > 0 {
		sm.reg.Counter(obs.MetricMemoTierHits).Add(int64(hits))
	}
	if len(missed) == 0 {
		return answers
	}
	sub := make([]boolean.Set, len(missed))
	for j, i := range missed {
		sub[j] = qs[i]
	}
	res := AskAll(o.inner, sub)
	sm.reg.Counter(obs.MetricMemoTierMisses).Add(int64(len(missed)))
	sm.mu.Lock()
	for j, i := range missed {
		answers[i] = res[j]
		sm.put(sm.keyOf(o.prefix, qs[i]), res[j])
	}
	sm.mu.Unlock()
	return answers
}
