package hashindex

import "testing"

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
