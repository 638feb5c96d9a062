// Package bitvec holds the word-wise bitset plumbing shared by the
// brute-force answer matrix and every other subsystem that packs
// per-candidate facts one bit per candidate (docs/PERFORMANCE.md).
// Before this package the popcount helpers were private to
// internal/brute and every new matrix user re-implemented them; now
// there is one copy, benchmarked and tested on its own.
//
// Everything here operates on plain word slices ([]uint64): the
// answer matrix's rows and the mutable working sets (remaining-candidate
// masks, scratch rows).
package bitvec

import "math/bits"

// Words returns the number of 64-bit words needed to hold nbits bits.
func Words(nbits int) int { return (nbits + 63) / 64 }

// Full returns a word slice with the first nbits bits set and the
// trailing word bits clear — the canonical "every candidate remains"
// mask. A zero or negative nbits returns nil.
func Full(nbits int) []uint64 {
	if nbits <= 0 {
		return nil
	}
	v := make([]uint64, Words(nbits))
	for i := range v {
		v[i] = ^uint64(0)
	}
	if tail := uint(nbits) & 63; tail != 0 {
		v[len(v)-1] = (1 << tail) - 1
	}
	return v
}

// Get reports bit i of v.
func Get(v []uint64, i int) bool {
	return v[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i of v.
func Set(v []uint64, i int) {
	v[i>>6] |= 1 << (uint(i) & 63)
}

// AndCount returns popcount(a & b) without mutating either side.
func AndCount(a, b []uint64) int {
	n := 0
	for w, x := range a {
		n += bits.OnesCount64(x & b[w])
	}
	return n
}

// AndInto folds a &= b.
func AndInto(a, b []uint64) {
	for w := range a {
		a[w] &= b[w]
	}
}

// AndNotInto folds a &^= b.
func AndNotInto(a, b []uint64) {
	for w := range a {
		a[w] &^= b[w]
	}
}

// Equal reports element-wise equality of two equal-length word slices.
func Equal(a, b []uint64) bool {
	for w, x := range a {
		if x != b[w] {
			return false
		}
	}
	return true
}

// FirstBit returns the index of the lowest set bit, or 0 when no bit
// is set (matching remaining[0] of the brute learner's serial path,
// which only consults it when at least one candidate survives).
func FirstBit(v []uint64) int {
	for w, word := range v {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return 0
}
