package oracle

// A reference model of the shared memo tier, and a check of a full
// tier in steady state. Both read the tier's generations, so they live
// in the package.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
)

// modelTier is the reference: answers by identity + Set.Key, and the
// same keys in a FIFO queue, oldest first.
type modelTier struct {
	capacity                int
	answers                 map[string]bool
	queue                   []modelKey
	hits, misses, evictions int64
}

// modelKey is one cached question of the model, under its identity.
type modelKey struct {
	k  string
	id int
	q  boolean.Set
}

func (m *modelTier) put(k modelKey, a bool) {
	if _, ok := m.answers[k.k]; !ok {
		m.queue = append(m.queue, k)
		if len(m.queue) > m.capacity {
			delete(m.answers, m.queue[0].k)
			m.queue = m.queue[1:]
			m.evictions++
		}
	}
	m.answers[k.k] = a
}

// modelUser is an inner oracle for one identity. It answers from a
// seeded function of the question and records what it is asked.
type modelUser struct {
	salt    uint64
	asked   []boolean.Set // one flat record of every question asked
	batches int
}

func (u *modelUser) answer(q boolean.Set) bool {
	h := u.salt
	for _, t := range q.Tuples() {
		h = h*31 + uint64(t)
	}
	return h>>3&1 == 1
}

func (u *modelUser) Ask(q boolean.Set) bool {
	u.asked = append(u.asked, q)
	return u.answer(q)
}

func (u *modelUser) AskBatch(qs []boolean.Set) []bool {
	u.batches++
	out := make([]bool, len(qs))
	for i, q := range qs {
		out[i] = u.Ask(q)
	}
	return out
}

// TestSharedMemoMatchesModel drives seeded random Ask, AskBatch and
// Update calls over several identities against the tier and against
// the reference model, at several capacities. Each run is long enough
// that the tier swaps its generations several times and its tables
// grow past their first size. After every call the answers, the
// questions the inner oracles saw, the hit, miss and eviction counters,
// Len and the size gauge must all agree with the model.
func TestSharedMemoMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 4, 64, 1024} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			reg := obs.NewRegistry()
			sm := NewSharedMemo(capacity, reg)
			m := &modelTier{capacity: capacity, answers: map[string]bool{}}
			ids := []string{"alice", "bob", "", "alice\x00"}
			users := make([]*modelUser, len(ids))
			tiers := make([]Oracle, len(ids))
			for i, id := range ids {
				users[i] = &modelUser{salt: uint64(i + 1)}
				tiers[i] = sm.Oracle(id, users[i])
			}
			key := func(id int, q boolean.Set) modelKey {
				return modelKey{ids[id] + "\xff" + q.Key(), id, q}
			}

			// Questions come from a pool about four times the capacity,
			// so some are still cached when asked again and some are not.
			n := 6 + rng.Intn(5)
			pool := make([]boolean.Set, 4*capacity+8)
			for i := range pool {
				tuples := make([]boolean.Tuple, rng.Intn(4))
				for j := range tuples {
					tuples[j] = boolean.Tuple(rng.Int63n(1 << n))
				}
				pool[i] = boolean.NewSet(tuples...)
			}
			question := func() boolean.Set { return pool[rng.Intn(len(pool))] }

			var swaps int
			var asked []boolean.Set
			steps := max(3000, 12*capacity)
			for step := 0; step < steps; step++ {
				id := rng.Intn(len(ids))
				u := users[id]
				// Every answer stored appends an entry to the current
				// generation; fewer entries than that after the call
				// mean the generations swapped.
				prevEntries, prevStored := len(sm.cur.entries), len(m.queue)+int(m.evictions)
				asked = asked[:0]
				switch r := rng.Intn(10); {
				case r < 4:
					q := question()
					want, hit := m.answers[key(id, q).k]
					if hit {
						m.hits++
					} else {
						want = u.answer(q)
						m.misses++
						asked = append(asked, q)
						m.put(key(id, q), want)
					}
					before := len(u.asked)
					if got := tiers[id].Ask(q); got != want {
						t.Fatalf("step %d: Ask(%s, %s) = %v, want %v", step, ids[id], q.Key(), got, want)
					}
					if !slices.EqualFunc(u.asked[before:], asked, boolean.Set.Equal) {
						t.Fatalf("step %d: Ask forwarded %d questions, want %d", step, len(u.asked)-before, len(asked))
					}
				case r < 8:
					batch := make([]boolean.Set, 1+rng.Intn(12))
					for i := range batch {
						batch[i] = question()
					}
					want := make([]bool, len(batch))
					var missed []int
					for i, q := range batch {
						if a, ok := m.answers[key(id, q).k]; ok {
							want[i] = a
							m.hits++
						} else {
							missed = append(missed, i)
							asked = append(asked, q)
						}
					}
					for _, i := range missed {
						want[i] = u.answer(batch[i])
						m.misses++
						m.put(key(id, batch[i]), want[i])
					}
					before, batches := len(u.asked), u.batches
					got := AskAll(tiers[id], batch)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: AskBatch(%s) = %v, want %v", step, ids[id], got, want)
					}
					if !slices.EqualFunc(u.asked[before:], asked, boolean.Set.Equal) {
						t.Fatalf("step %d: AskBatch forwarded %d questions, want %d in batch order", step, len(u.asked)-before, len(asked))
					}
					if wantBatches := batches + min(1, len(missed)); u.batches != wantBatches {
						t.Fatalf("step %d: AskBatch made %d inner batches, want %d", step, u.batches-batches, wantBatches-batches)
					}
				default:
					q, a := question(), rng.Intn(2) == 0
					m.put(key(id, q), a)
					sm.Update(ids[id], q, a)
				}
				if len(sm.cur.entries) < prevEntries+len(m.queue)+int(m.evictions)-prevStored {
					swaps++
				}
				if got := reg.CounterValue(obs.MetricMemoTierHits); got != m.hits {
					t.Fatalf("step %d: hits = %d, want %d", step, got, m.hits)
				}
				if got := reg.CounterValue(obs.MetricMemoTierMisses); got != m.misses {
					t.Fatalf("step %d: misses = %d, want %d", step, got, m.misses)
				}
				if got := reg.CounterValue(obs.MetricMemoTierEvictions); got != m.evictions {
					t.Fatalf("step %d: evictions = %d, want %d", step, got, m.evictions)
				}
				if sm.Len() != len(m.queue) {
					t.Fatalf("step %d: Len = %d, want %d", step, sm.Len(), len(m.queue))
				}
				if got := reg.Gauge(obs.MetricMemoTierSize).Value(); got != float64(len(m.queue)) {
					t.Fatalf("step %d: size gauge = %v, want %d", step, got, len(m.queue))
				}
			}
			if swaps < 2 {
				t.Fatalf("the tier swapped its generations %d times, want at least 2", swaps)
			}
			// Every answer the model still holds is served from the
			// tier, without reaching an inner oracle.
			for _, k := range m.queue {
				u := users[k.id]
				before := len(u.asked)
				if got := tiers[k.id].Ask(k.q); got != m.answers[k.k] || len(u.asked) != before {
					t.Fatalf("cached %q: Ask = %v with %d inner asks, want %v from the tier",
						k.k, got, len(u.asked)-before, m.answers[k.k])
				}
			}
		})
	}
}

// TestSharedMemoSteadyState stores 3·capacity distinct answers into a
// tier, alternating misses and Update. Once both generations have
// grown to capacity, storing allocates nothing, a generation swap
// included, Len stays at capacity, and the storage the tier holds
// stays within a fixed factor of its live answers' keys and entries.
func TestSharedMemoSteadyState(t *testing.T) {
	const capacity = 4096
	// Every tuple of 16 variables from 2¹⁴ on is a 3-byte uvarint, so
	// every key (two tuples and a 1-byte identity number) is 7 bytes
	// long and no arena regrows once grown.
	u := boolean.MustUniverse(16)
	qs := make([]boolean.Set, 3*capacity)
	for i := range qs {
		qs[i] = boolean.NewSet(boolean.Tuple(1<<14+i), u.All())
	}
	sm := NewSharedMemo(capacity, obs.NewRegistry())
	o := sm.Oracle("alice", Func(func(q boolean.Set) bool { return q.Size() == 2 }))
	next := 0
	store := func() {
		if next%2 == 0 {
			o.Ask(qs[next])
		} else {
			sm.Update("alice", qs[next], true)
		}
		next++
	}
	for next < 3*capacity/2 {
		store()
	}
	// AllocsPerRun's warm-up call stores answers 1.5·capacity to
	// 2·capacity, so the second generation grows to capacity; its one
	// counted call stores the next capacity/2, and the first of them
	// swaps the generations.
	if n := testing.AllocsPerRun(1, func() {
		for range capacity / 2 {
			store()
		}
	}); n != 0 {
		t.Errorf("storing %d answers in a full tier allocates %v times, want 0", capacity/2, n)
	}
	held := tierBytes(sm)
	for next < len(qs) {
		store()
		if sm.Len() != capacity {
			t.Fatalf("Len = %d after %d answers, want %d", sm.Len(), next, capacity)
		}
	}
	if got := tierBytes(sm); got != held {
		t.Errorf("the tier's storage went from %d to %d bytes in steady state", held, got)
	}
	// Each generation holds at most capacity answers. Append growth
	// leaves an arena, entry or hash list at most twice the length it
	// needs, and the table has at most 4 slots of 4 bytes per answer,
	// so two generations could hold up to 4·key + 64 bytes per live
	// answer, 8.4 times key + 4 for these 7-byte keys. This layout
	// measures 4.18 times; the factor leaves a small margin over that.
	const factor = 4.5
	live := len(sm.old.keys) - sm.old.entries[sm.evicted-1].end() + len(sm.cur.keys) + 4*capacity
	if float64(held) > factor*float64(live) {
		t.Errorf("a full tier holds %d bytes for %d bytes of live keys and entries, over %v times", held, live, factor)
	}
	if got := sm.bytes.Value(); got > float64(held) || got < float64(held)/2 {
		t.Errorf("qhornd_memo_bytes reads %v for a tier holding %d bytes", got, held)
	}
	t.Logf("%d bytes held for %d bytes of live keys and entries (%.2f×)", held, live, float64(held)/float64(live))
}

// TestSharedMemoHoldsIdentityOnce stores 64 answers under a 1 MiB
// identity, half through Update and half through a missed AskBatch.
// Each generation interns the identity once, so the arena and the
// intern table hold it once, not once per answer (64 MiB).
func TestSharedMemoHoldsIdentityOnce(t *testing.T) {
	identity := strings.Repeat("u", 1<<20)
	u := boolean.MustUniverse(8)
	qs := make([]boolean.Set, 64)
	for i := range qs {
		qs[i] = boolean.NewSet(boolean.Tuple(i), u.All())
	}
	reg := obs.NewRegistry()
	sm := NewSharedMemo(1024, reg)
	for _, q := range qs[:32] {
		sm.Update(identity, q, true)
	}
	user := &modelUser{salt: 1}
	AskAll(sm.Oracle(strings.Clone(identity), user), qs[32:])
	if len(user.asked) != 32 || sm.Len() != 64 {
		t.Fatalf("the batch forwarded %d questions and the tier holds %d answers, want 32 and 64", len(user.asked), sm.Len())
	}
	held := cap(sm.old.keys) + cap(sm.cur.keys) + internedBytes(&sm.old) + internedBytes(&sm.cur)
	if held >= 2<<20 {
		t.Errorf("64 answers under a 1 MiB identity hold %d bytes of arena and intern table, want under 2 MiB", held)
	}
	if got := reg.Gauge(obs.MetricMemoTierBytes).Value(); got < 1<<20 || got >= 2<<20 {
		t.Errorf("qhornd_memo_bytes = %v, want the identity's 1 MiB plus under 1 MiB", got)
	}
}

// TestSharedMemoArenaLimitSwapsEarly lowers the arena limit so that a
// generation fills after three keys, well before capacity answers.
// Each key that would pass the limit swaps the generations early and
// evicts what remains of old. After every store the tier holds exactly
// the newest Len answers, the counters agree with Len, and no arena
// passes the limit.
func TestSharedMemoArenaLimitSwapsEarly(t *testing.T) {
	for _, capacity := range []int{64, 5} {
		reg := obs.NewRegistry()
		sm := NewSharedMemo(capacity, reg)
		sm.maxArena = 6    // every key is 2 bytes: tuple and identity number
		var old, cur []int // the reference: stored indices by generation
		for i := range 20 {
			sm.Update("alice", boolean.NewSet(boolean.Tuple(i)), i%2 == 0)
			if len(cur) == 3 {
				old, cur = cur, nil
			}
			if cur = append(cur, i); len(old)+len(cur) > capacity {
				old = old[1:]
			}
			n := len(old) + len(cur)
			if sm.Len() != n {
				t.Fatalf("capacity %d, %d stored: Len = %d, want %d", capacity, i+1, sm.Len(), n)
			}
			if got := reg.CounterValue(obs.MetricMemoTierEvictions); got != int64(i+1-n) {
				t.Fatalf("capacity %d, %d stored: evictions = %d, want %d", capacity, i+1, got, i+1-n)
			}
			if got := reg.Gauge(obs.MetricMemoTierSize).Value(); got != float64(n) {
				t.Fatalf("capacity %d, %d stored: size gauge = %v, want %d", capacity, i+1, got, n)
			}
			if len(sm.old.keys) > sm.maxArena || len(sm.cur.keys) > sm.maxArena {
				t.Fatalf("capacity %d, %d stored: arenas of %d and %d bytes pass the limit %d", capacity, i+1, len(sm.old.keys), len(sm.cur.keys), sm.maxArena)
			}
			sm.lock("alice")
			for j := 0; j <= i; j++ {
				e := sm.find(boolean.NewSet(boolean.Tuple(j)))
				if want := j > i-n; (e != nil) != want || want && e.answer() != (j%2 == 0) {
					t.Fatalf("capacity %d, %d stored: answer %d cached = %v, want %v (oldest first)", capacity, i+1, j, e != nil, want)
				}
			}
			sm.mu.Unlock()
		}
	}
}

// tierBytes returns the bytes a tier's two generations hold: the
// capacities of their slices and the identities they intern.
func tierBytes(sm *SharedMemo) int {
	return heldBytes(reflect.ValueOf(sm.old)) + heldBytes(reflect.ValueOf(sm.cur)) +
		internedBytes(&sm.old) + internedBytes(&sm.cur)
}

// internedBytes sums the lengths of the identities g's intern table
// holds; heldBytes counts no map.
func internedBytes(g *generation) int {
	n := 0
	for id := range g.ids {
		n += len(id)
	}
	return n
}

// heldBytes sums the capacities, in bytes, of the slices in v and in
// the structs it holds.
func heldBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		return v.Cap() * int(v.Type().Elem().Size())
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += heldBytes(v.Field(i))
		}
		return n
	}
	return 0
}
