package oracle

// The shared memo tier: a bounded, concurrency-safe, cross-session
// answer cache. Where a run's own history (internal/session) dies with
// its session, a SharedMemo outlives sessions — a qhornd server threads
// one under every session of the same oracle identity, so a user whose
// target drifts by a clause replays the settled part of the lattice
// for free instead of re-answering it over the wire.
//
// Entries are keyed by (identity, question). The identity names a
// user/target intent; distinct identities never share answers, so one
// server-wide tier gives per-user isolation under one memory bound. It
// is one table under one mutex, evicting the oldest answer first once
// full. The lock is never held while the inner oracle is asked, and
// nothing is ever in flight: concurrent sessions of one identity each
// ask their own client, and their answers meet once recorded.
//
// The tier lives as long as the server and grows to its bound, so it
// stores no pointer per answer, and the garbage collector has nothing
// in it to mark. Its answers sit in two append-only generations, old
// and cur, each answer in old older than any in cur. Each numbers the
// identities it holds, storing each once. Keys (question and number)
// sit back to back in one byte arena, a 4-byte entry per answer holds
// its key's end and the answer, and a hashindex.Index over a seeded
// 32-bit hash finds it, every match confirmed on the key bytes. New
// answers go to cur; eviction counts off old's oldest. Once cur is
// full, old is emptied, keeping its storage, and the two swap places.

import (
	"bytes"
	"encoding/binary"
	"strings"
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
// Memory: a cached answer costs its key (a uvarint per tuple, 2 bytes
// a tuple at up to 14 variables, and its identity's number in the
// generation), a 4-byte entry, a 4-byte hash and 2–4 table slots of 4
// bytes; a generation holds each identity once. On 100,000
// role-preserving questions at 11–13 variables the tier held 31 bytes
// per answer. A generation holds at most capacity answers, evicted
// ones included, so at qhornd's default capacity of 2²⁰ a full tier
// holds about 66 MB plus its identities, none of which the garbage
// collector scans. The qhornd_memo_bytes gauge reports what it holds.
type SharedMemo struct {
	capacity int
	maxArena int // a generation is full once its arena would pass this
	// The tier's metric handles, resolved once by NewSharedMemo.
	hits, misses, evictions *obs.Counter
	size, bytes             *obs.Gauge

	mu           sync.Mutex
	old, cur     generation
	evicted      int    // old.entries[:evicted] are evicted
	key          []byte // scratch: find's question as AppendID bytes, then a key
	hash         uint32 // hashindex.Sum of find's question
	idCur, idOld int    // the locked identity's numbers in cur and old, or -1
}

// generation is one append-only run of cached answers, oldest first.
type generation struct {
	keys    []byte          // arena: entry keys back to back
	entries []entry         // cached answers
	index   hashindex.Index // entries[p] is recorded under position p
	names   []string        // interned identities, by number
	ids     map[string]int  // ids[names[n]] == n+1
	idBytes int             // the length of names together
}

// entry is one cached answer in 4 bytes: the end of its key in the
// arena, shifted left by one, with the answer in the low bit. Its key
// is keys[start:end], where start is the previous entry's end, or 0
// for the first entry.
type entry uint32

func newEntry(end int, answer bool) entry {
	if answer {
		return entry(end)<<1 | 1
	}
	return entry(end) << 1
}

func (e entry) end() int     { return int(e >> 1) }
func (e entry) answer() bool { return e&1 == 1 }

// NewSharedMemo returns a shared memo tier bounded to capacity cached
// answers (clamped to at least 1). A non-nil registry receives the
// tier accounting: qhornd_memo_hits_total, qhornd_memo_misses_total,
// qhornd_memo_evictions_total, qhornd_memo_size and qhornd_memo_bytes.
func NewSharedMemo(capacity int, reg *obs.Registry) *SharedMemo {
	return &SharedMemo{
		capacity: max(capacity, 1), maxArena: 1<<31 - 1, // an entry's largest end
		old: generation{ids: map[string]int{}}, cur: generation{ids: map[string]int{}},
		hits:      reg.Counter(obs.MetricMemoTierHits),
		misses:    reg.Counter(obs.MetricMemoTierMisses),
		evictions: reg.Counter(obs.MetricMemoTierEvictions),
		size:      reg.Gauge(obs.MetricMemoTierSize),
		bytes:     reg.Gauge(obs.MetricMemoTierBytes),
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
// The amendment path uses it to propagate a user's correction, so
// later sessions of the same identity see the corrected answer instead
// of the stale one. On a nil (disabled) tier it does nothing.
func (sm *SharedMemo) Update(identity string, s boolean.Set, answer bool) {
	if sm == nil {
		return
	}
	sm.lock(identity)
	sm.put(identity, s, answer)
	sm.mu.Unlock()
}

// Oracle returns an oracle that serves questions for the given
// identity from the tier, forwarding misses to inner. It implements
// BatchOracle: a batch's misses go to inner as one sub-batch in
// original order, so with a cold tier inner sees exactly the batches
// it would see without the tier (bit-identity), and with a warm tier
// only fewer questions. It does not deduplicate a batch: its one
// served caller, session.Session.AskBatch, sends down only distinct
// questions it has not recorded. A nil *SharedMemo returns inner.
func (sm *SharedMemo) Oracle(identity string, inner Oracle) Oracle {
	if sm == nil {
		return inner
	}
	return &tierOracle{sm: sm, identity: identity, inner: inner}
}

// lock takes mu and looks identity up once for all the questions
// asked or stored before the unlock.
func (sm *SharedMemo) lock(identity string) {
	sm.mu.Lock()
	sm.idCur, sm.idOld = sm.cur.ids[identity]-1, sm.old.ids[identity]-1
}

// keyOf returns the key of find's question under identity number n:
// each tuple (AppendID) then n, as uvarints, so no two pairs share a
// key. Its hash mixes n into the question's, hashed once per find.
func (sm *SharedMemo) keyOf(n int) ([]byte, uint32) {
	k := binary.AppendUvarint(sm.key, uint64(n))
	sm.key = k[:len(sm.key)] // keep the storage if it grew
	return k, sm.hash ^ uint32(n)*0x9e3779b9
}

// lookup returns g's entry for find's question under identity number
// n, among the entries from position from on, or nil.
func (sm *SharedMemo) lookup(g *generation, n, from int) *entry {
	if n < 0 {
		return nil
	}
	k, h := sm.keyOf(n)
	if p, ok := g.index.Find(h, func(p int32) bool {
		start := 0
		if p > 0 {
			start = g.entries[p-1].end()
		}
		return int(p) >= from && bytes.Equal(g.keys[start:g.entries[p].end()], k)
	}); ok {
		return &g.entries[p]
	}
	return nil
}

// find returns the live entry for s under the locked identity, or
// nil, searching each generation under its own numbering.
func (sm *SharedMemo) find(s boolean.Set) *entry {
	sm.key = s.AppendID(sm.key[:0])
	sm.hash = hashindex.Sum(sm.key)
	if e := sm.lookup(&sm.cur, sm.idCur, 0); e != nil {
		return e
	}
	return sm.lookup(&sm.old, sm.idOld, sm.evicted)
}

// put stores the answer for s under the locked identity. Once the tier
// holds capacity answers, each new one evicts old's oldest, so old has
// none left when cur is full. A key that would push cur's arena past
// maxArena swaps early, evicting old's live answers at once.
func (sm *SharedMemo) put(identity string, s boolean.Set, answer bool) {
	if e := sm.find(s); e != nil {
		*e = newEntry(e.end(), answer)
		return
	}
	g, n := &sm.cur, sm.idCur
	if n < 0 {
		n = len(g.names) // the number interning gives it
	}
	k, h := sm.keyOf(n)
	if len(g.entries) == sm.capacity || len(g.keys)+len(k) > sm.maxArena {
		evicted := len(sm.old.entries) - sm.evicted
		sm.evictions.Add(int64(evicted))
		sm.size.Add(-float64(evicted))
		sm.old, sm.cur, sm.evicted, sm.idOld, sm.idCur = sm.cur, sm.old, 0, sm.idCur, -1
		clear(g.names)
		clear(g.ids)
		g.keys, g.entries, g.names, g.idBytes = g.keys[:0], g.entries[:0], g.names[:0], 0
		g.index.Reset()
		k, h = sm.keyOf(0)
	}
	if sm.idCur < 0 { // intern: old's copy of the identity, else a clone
		if sm.idOld < 0 {
			identity = strings.Clone(identity)
		} else {
			identity = sm.old.names[sm.idOld]
		}
		g.names, g.idBytes = append(g.names, identity), g.idBytes+len(identity)
		g.ids[identity], sm.idCur = len(g.names), len(g.names)-1
	}
	g.index.Add(h)
	g.keys = append(g.keys, k...)
	g.entries = append(g.entries, newEntry(len(g.keys), answer))
	if len(sm.old.entries)-sm.evicted+len(g.entries) > sm.capacity {
		sm.evicted++
		sm.evictions.Inc()
	} else {
		sm.size.Add(1)
	}
	held := cap(g.keys) + cap(sm.old.keys) + 4*(cap(g.entries)+cap(sm.old.entries))
	sm.bytes.Set(float64(held + g.index.Bytes() + sm.old.index.Bytes() + g.idBytes + sm.old.idBytes))
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
	sm.lock(o.identity)
	e := sm.find(s)
	a, ok := e != nil && e.answer(), e != nil
	sm.mu.Unlock()
	if ok {
		sm.hits.Inc()
		return a
	}
	a = o.inner.Ask(s)
	sm.misses.Inc()
	sm.lock(o.identity)
	sm.put(o.identity, s, a)
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
	sm.lock(o.identity)
	for i, q := range qs {
		if e := sm.find(q); e != nil {
			answers[i] = e.answer()
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
	sm.lock(o.identity)
	for j, i := range missed {
		answers[i] = res[j]
		sm.put(o.identity, qs[i], res[j])
	}
	sm.mu.Unlock()
	return answers
}
