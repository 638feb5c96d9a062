package bitvec

import (
	"math/rand"
	"testing"
)

func TestWords(t *testing.T) {
	cases := []struct{ nbits, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {4096, 64},
	}
	for _, c := range cases {
		if got := Words(c.nbits); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.nbits, got, c.want)
		}
	}
}

func TestFull(t *testing.T) {
	if Full(0) != nil || Full(-3) != nil {
		t.Fatal("Full of non-positive nbits should be nil")
	}
	for _, nbits := range []int{1, 7, 63, 64, 65, 100, 128, 200} {
		v := Full(nbits)
		if len(v) != Words(nbits) {
			t.Fatalf("Full(%d): %d words, want %d", nbits, len(v), Words(nbits))
		}
		if AndCount(v, v) != nbits {
			t.Errorf("Full(%d): count %d", nbits, AndCount(v, v))
		}
		for i := 0; i < nbits; i++ {
			if !Get(v, i) {
				t.Fatalf("Full(%d): bit %d clear", nbits, i)
			}
		}
		// Trailing bits beyond nbits must be clear.
		for i := nbits; i < 64*len(v); i++ {
			if Get(v, i) {
				t.Fatalf("Full(%d): trailing bit %d set", nbits, i)
			}
		}
	}
}

func TestGetSetCount(t *testing.T) {
	v := make([]uint64, 3)
	idx := []int{0, 1, 63, 64, 100, 191}
	for _, i := range idx {
		Set(v, i)
	}
	if AndCount(v, v) != len(idx) {
		t.Fatalf("count %d, want %d", AndCount(v, v), len(idx))
	}
	want := map[int]bool{}
	for _, i := range idx {
		want[i] = true
	}
	for i := 0; i < 192; i++ {
		if Get(v, i) != want[i] {
			t.Errorf("bit %d = %v, want %v", i, Get(v, i), want[i])
		}
	}
}

func TestWordOps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		nw := 1 + rng.Intn(6)
		a := make([]uint64, nw)
		b := make([]uint64, nw)
		for w := range a {
			a[w], b[w] = rng.Uint64(), rng.Uint64()
		}

		// Reference popcount(a & b) bit by bit.
		want := 0
		for i := 0; i < 64*nw; i++ {
			if Get(a, i) && Get(b, i) {
				want++
			}
		}
		if got := AndCount(a, b); got != want {
			t.Fatalf("AndCount = %d, want %d", got, want)
		}

		and := append([]uint64{}, a...)
		AndInto(and, b)
		andNot := append([]uint64{}, a...)
		AndNotInto(andNot, b)
		for i := 0; i < 64*nw; i++ {
			if Get(and, i) != (Get(a, i) && Get(b, i)) {
				t.Fatalf("AndInto bit %d wrong", i)
			}
			if Get(andNot, i) != (Get(a, i) && !Get(b, i)) {
				t.Fatalf("AndNotInto bit %d wrong", i)
			}
		}
		if AndCount(and, and) != want {
			t.Fatalf("AndInto count %d, want %d", AndCount(and, and), want)
		}

		if !Equal(a, a) {
			t.Fatal("Equal(a, a) false")
		}
		c := append([]uint64{}, a...)
		flip := rng.Intn(64 * nw)
		c[flip>>6] ^= 1 << (uint(flip) & 63)
		if Equal(a, c) {
			t.Fatal("Equal true after flipping a bit")
		}
	}
}

func TestFirstBit(t *testing.T) {
	if FirstBit(make([]uint64, 4)) != 0 {
		t.Fatal("FirstBit of empty vector should be 0")
	}
	for _, i := range []int{0, 1, 17, 63, 64, 130, 255} {
		v := make([]uint64, 4)
		Set(v, i)
		Set(v, 255) // a later bit never wins
		if got := FirstBit(v); got != i {
			t.Errorf("FirstBit with lowest %d = %d", i, got)
		}
	}
}

// randomWords builds an nbits-bit vector with the given approximate
// set-bit density, trailing bits clear.
func randomWords(rng *rand.Rand, nbits int, density float64) []uint64 {
	v := make([]uint64, Words(nbits))
	for i := 0; i < nbits; i++ {
		if rng.Float64() < density {
			Set(v, i)
		}
	}
	return v
}

func BenchmarkAndCount(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	nbits := 65536
	x := randomWords(rng, nbits, 0.5)
	y := randomWords(rng, nbits, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCount(x, y)
	}
}
