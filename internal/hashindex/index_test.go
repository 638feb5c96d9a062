package hashindex

import (
	"math/rand"
	"testing"
)

// TestIndexGrowsUnderOneHash adds positions all under one hash, well
// past the first table size, and finds every one of them by equality
// alone, also after truncation and reset.
func TestIndexGrowsUnderOneHash(t *testing.T) {
	const n = 5 * minSlots
	var x Index
	check := func(label string, size int) {
		t.Helper()
		if len(x.slots) < 2*size || len(x.slots)&(len(x.slots)-1) != 0 {
			t.Fatalf("%s: %d slots for %d positions, want a power of two at least twice as many", label, len(x.slots), size)
		}
		for want := int32(0); want < n; want++ {
			got, ok := x.Find(42, func(p int32) bool { return p == want })
			if ok != (int(want) < size) || ok && got != want {
				t.Fatalf("%s: Find(%d) = %d, %v with %d positions", label, want, got, ok, size)
			}
		}
	}
	for p := int32(0); p < n; p++ {
		if got := x.Add(42); got != p {
			t.Fatalf("Add returned position %d, want %d", got, p)
		}
	}
	check("after growth", n)
	x.Truncate(n / 3)
	check("after truncate", n/3)
	x.Reset()
	if _, ok := x.Find(42, func(int32) bool { return true }); ok {
		t.Fatal("reset index still finds a position")
	}
	if got := x.Add(42); got != 0 {
		t.Fatalf("first Add after reset returned %d, want 0", got)
	}
}

// TestDropOldestMatchesQueue drives a bounded FIFO through the index:
// keys are added under few distinct hashes (so probe chains run through
// dropped positions), the oldest is dropped past a bound, and the list
// slides whenever DropOldest says so. Every live key must be found at
// its list position, and no dropped key may be found.
func TestDropOldestMatchesQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bound := range []int{1, 2, 5, 64, 300} {
		var x Index
		var list []int // the caller's list: key at each position
		var slides int
		hash := func(k int) uint64 { return uint64(k % 7) }
		find := func(k int) (int32, bool) {
			return x.Find(hash(k), func(p int32) bool { return list[p] == k })
		}
		for k := 0; k < 20*bound+200; k++ {
			if p := x.Add(hash(k)); int(p) != len(list) {
				t.Fatalf("bound %d: Add returned %d, list has %d", bound, p, len(list))
			}
			list = append(list, k)
			if x.Len() > bound {
				if n := x.DropOldest(); n > 0 {
					list = list[:copy(list, list[n:])]
					slides++
				}
			}
			if x.Len() != min(k+1, bound) {
				t.Fatalf("bound %d: Len = %d after %d adds", bound, x.Len(), k+1)
			}
			if len(list) > 2*bound+1 {
				t.Fatalf("bound %d: %d positions kept for %d live", bound, len(list), x.Len())
			}
			if rng.Intn(4) > 0 {
				continue
			}
			for old := max(0, k-2*bound-2); old <= k; old++ {
				p, ok := find(old)
				if live := old > k-bound; ok != live || ok && list[p] != old {
					t.Fatalf("bound %d after key %d: Find(%d) = %d, %v; want live=%v", bound, k, old, p, ok, live)
				}
			}
		}
		if slides == 0 {
			t.Fatalf("bound %d: the index never slid", bound)
		}
	}
}
