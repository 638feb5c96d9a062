package boolean

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestNewSetCanonical(t *testing.T) {
	s := NewSet(FromVars(2), FromVars(0), FromVars(2), FromVars(0, 1))
	if got := s.Size(); got != 3 {
		t.Fatalf("Size = %d, want 3 (dedup)", got)
	}
	ts := s.Tuples()
	for i := 1; i < len(ts); i++ {
		if ts[i-1] >= ts[i] {
			t.Fatalf("not sorted: %v", ts)
		}
	}
}

func TestSetHasWithWithout(t *testing.T) {
	s := NewSet(FromVars(0), FromVars(1))
	if !s.Has(FromVars(0)) || s.Has(FromVars(2)) {
		t.Fatal("Has wrong")
	}
	s2 := s.With(FromVars(2))
	if s2.Size() != 3 || !s2.Has(FromVars(2)) {
		t.Fatal("With failed")
	}
	if s.Size() != 2 {
		t.Fatal("With mutated receiver")
	}
	s3 := s2.Without(FromVars(1))
	if s3.Size() != 2 || s3.Has(FromVars(1)) {
		t.Fatal("Without failed")
	}
	if got := s.With(FromVars(0)); !got.Equal(s) {
		t.Fatal("With existing tuple changed set")
	}
	if got := s.Without(FromVars(5)); !got.Equal(s) {
		t.Fatal("Without absent tuple changed set")
	}
}

func TestSetUnionEqual(t *testing.T) {
	a := NewSet(FromVars(0), FromVars(1))
	b := NewSet(FromVars(1), FromVars(2))
	u := a.Union(b)
	if u.Size() != 3 {
		t.Fatalf("Union size = %d", u.Size())
	}
	if !a.Union(Set{}).Equal(a) || !(Set{}).Union(a).Equal(a) {
		t.Fatal("Union with empty broken")
	}
	if a.Equal(b) {
		t.Fatal("distinct sets Equal")
	}
	if !a.Equal(NewSet(FromVars(1), FromVars(0))) {
		t.Fatal("order-insensitive equality broken")
	}
}

func TestAnyContains(t *testing.T) {
	u := MustUniverse(6)
	s := MustParseSet(u, "{100110, 111001}")
	tests := []struct {
		conj string
		want bool
	}{
		{"100110", true}, // exact tuple
		{"100000", true}, // subset of first
		{"110000", true}, // subset of second
		{"000001", true}, // x6 in second
		{"100001", true}, // x1,x6 both in second
		{"000101", false},
		{"111111", false},
	}
	for _, tc := range tests {
		conj := u.MustParse(tc.conj)
		if got := s.AnyContains(conj); got != tc.want {
			t.Errorf("AnyContains(%s) = %v, want %v", tc.conj, got, tc.want)
		}
	}
	if (Set{}).AnyContains(Empty) {
		t.Error("empty set satisfies empty conjunction: guarantee semantics require a witness tuple")
	}
	if !NewSet(Empty).AnyContains(Empty) {
		t.Error("set with 0^n tuple should satisfy empty conjunction")
	}
}

func TestSetKeyUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[string]Set{}
	for i := 0; i < 500; i++ {
		n := rng.Intn(5)
		tuples := make([]Tuple, n)
		for j := range tuples {
			tuples[j] = Tuple(rng.Intn(64))
		}
		s := NewSet(tuples...)
		k := s.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(s) {
			t.Fatalf("key collision: %v vs %v", prev, s)
		}
		seen[k] = s
	}
}

func TestFormatParseSetRoundTrip(t *testing.T) {
	u := MustUniverse(4)
	s := NewSet(u.MustParse("1010"), u.MustParse("0111"))
	text := s.Format(u)
	if text != "{0111, 1010}" && text != "{1010, 0111}" {
		// ascending bitset order: 1010 = 0b0101 = 5, 0111 = 0b1110 = 14
		t.Logf("format: %s", text)
	}
	back, err := ParseSet(u, text)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Fatalf("round trip: %s -> %s", text, back.Format(u))
	}
	// Bare forms.
	for _, in := range []string{"1010 0111", "1010,0111", "  {1010, 0111}  "} {
		got, err := ParseSet(u, in)
		if err != nil {
			t.Fatalf("ParseSet(%q): %v", in, err)
		}
		if !got.Equal(s) {
			t.Fatalf("ParseSet(%q) = %s", in, got.Format(u))
		}
	}
	if _, err := ParseSet(u, "10x0"); err == nil {
		t.Fatal("ParseSet accepted bad tuple")
	}
	empty, err := ParseSet(u, "{}")
	if err != nil || !empty.IsEmpty() {
		t.Fatalf("ParseSet({}) = %v, %v", empty, err)
	}
}

func TestAllObjects(t *testing.T) {
	u := MustUniverse(2)
	objs := AllObjects(u)
	if len(objs) != 16 {
		t.Fatalf("n=2: %d objects, want 2^(2^2)=16", len(objs))
	}
	seen := map[string]bool{}
	for _, o := range objs {
		k := o.Key()
		if seen[k] {
			t.Fatalf("duplicate object %s", o.Format(u))
		}
		seen[k] = true
	}
	u3 := MustUniverse(3)
	if got := len(AllObjects(u3)); got != 256 {
		t.Fatalf("n=3: %d objects, want 256", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AllObjects(n=5) did not panic")
		}
	}()
	AllObjects(MustUniverse(5))
}

func TestAllTuples(t *testing.T) {
	u := MustUniverse(3)
	ts := AllTuples(u)
	if len(ts) != 8 {
		t.Fatalf("len = %d", len(ts))
	}
	for i, tp := range ts {
		if tp != Tuple(i) {
			t.Fatalf("AllTuples[%d] = %v", i, tp)
		}
	}
}

// TestSetKeyEncoding pins the key encoding to what the old fmt-based
// builder produced: comma-separated lowercase hex of the sorted tuples.
// Session persistence files store keys, so the encoding is a contract.
func TestSetKeyEncoding(t *testing.T) {
	s := NewSet(Tuple(0), Tuple(10), Tuple(255), Tuple(1<<40))
	want := fmt.Sprintf("%x,%x,%x,%x", 0, 10, 255, uint64(1)<<40)
	if got := s.Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	if got := (Set{}).Key(); got != "" {
		t.Fatalf("zero-value Key() = %q, want empty", got)
	}
	if got := NewSet().Key(); got != "" {
		t.Fatalf("NewSet().Key() = %q, want empty", got)
	}
}

// TestSetKeyCached: Key is built from the tuples on every call, so a
// copy of a set keys like the original, and derived sets
// (With/Without/Union) key by their own tuples without disturbing the
// original's key.
func TestSetKeyCached(t *testing.T) {
	s := NewSet(Tuple(3), Tuple(9))
	k := s.Key()
	cp := s
	if cp.Key() != k {
		t.Fatal("copy disagrees with original key")
	}
	grown := s.With(Tuple(1))
	if grown.Key() == k {
		t.Fatal("With returned the parent's key")
	}
	shrunk := grown.Without(Tuple(1))
	if shrunk.Key() != k {
		t.Fatalf("Without key %q, want %q", shrunk.Key(), k)
	}
	if s.Key() != k {
		t.Fatal("original key mutated by derivation")
	}
	u := s.Union(NewSet(Tuple(70)))
	if u.Key() == k || !s.Equal(NewSet(Tuple(3), Tuple(9))) {
		t.Fatal("Union corrupted the receiver")
	}
}

// TestSetKeyConcurrent calls Key on one set from many goroutines; run
// with -race this proves the memo-oracle hot path can share one Set
// across the worker pool.
func TestSetKeyConcurrent(t *testing.T) {
	s := NewSet(Tuple(1), Tuple(2), Tuple(1<<30))
	want := s.Key()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if s.Key() != want {
					t.Error("concurrent Key mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSetKey measures the memo-oracle hot path: one Key() call,
// which builds the hex encoding of the set's 32 tuples every time.
func BenchmarkSetKey(b *testing.B) {
	tuples := make([]Tuple, 32)
	for i := range tuples {
		tuples[i] = Tuple(i * 37)
	}
	s := NewSet(tuples...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Key()
	}
}

// TestSampleObjects: samples are distinct, include the structural
// extremes, and reproduce deterministically from the seed.
func TestSampleObjects(t *testing.T) {
	u := MustUniverse(5)
	rng := rand.New(rand.NewSource(61))
	objs := SampleObjects(rng, u, 200)
	if len(objs) != 200 {
		t.Fatalf("sampled %d objects, want 200", len(objs))
	}
	if !objs[0].IsEmpty() {
		t.Fatal("first sample should be the empty object")
	}
	if objs[1].Size() != 1<<uint(u.N()) {
		t.Fatal("second sample should be the full object")
	}
	seen := map[string]bool{}
	for _, o := range objs {
		if seen[o.Key()] {
			t.Fatalf("duplicate object %s", o.Format(u))
		}
		seen[o.Key()] = true
	}
	again := SampleObjects(rand.New(rand.NewSource(61)), u, 200)
	for i := range objs {
		if !objs[i].Equal(again[i]) {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
	// A count smaller than the two structural extremes is honored.
	if short := SampleObjects(rng, u, 1); len(short) != 1 {
		t.Fatalf("count=1 returned %d objects", len(short))
	}
}
