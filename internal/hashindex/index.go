// Package hashindex is the open-addressed hash table behind qhorn's two
// answer stores: the interaction history of internal/session and the
// shared memo tier of internal/oracle. An Index maps hashes to the
// positions 0, 1, 2, … of a list its caller keeps; it never sees the
// keys themselves, and a lookup confirms a hash match with the
// caller's equality test. Positions are only added, or cut off from
// the end (Truncate, Reset): the history truncates on amendment, and
// the tier evicts by resetting a whole generation. It holds no pointer
// per position, so a large index costs the garbage collector nothing
// to mark.
package hashindex

import (
	"hash/maphash"
	"slices"
)

// seed keys Sum. It is drawn once per process, so the probe sequence
// of a key is unpredictable to a client that chooses the keys (a
// submitted snapshot, a user's questions).
var seed = maphash.MakeSeed()

// Sum returns the hash of b under the process's seed.
func Sum(b []byte) uint64 { return maphash.Bytes(seed, b) }

// Index maps hashes to positions of an append-only list the caller
// keeps. It is an open-addressed table probed linearly: slots is a
// power of two long, holds position+1 (0 is empty), and is kept at
// most half full. hashes[p] is the hash position p was added under, so
// growth and truncation reinsert positions without hashing again. The
// zero value is an empty index.
type Index struct {
	slots  []int32
	hashes []uint64
}

// minSlots is the table size the first Add allocates.
const minSlots = 64

// Find returns the first position added under hash h for which eq
// holds.
func (x *Index) Find(h uint64, eq func(p int32) bool) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		p := x.slots[i] - 1
		if p < 0 {
			return 0, false
		}
		if x.hashes[p] == h && eq(p) {
			return p, true
		}
	}
}

// Add records the next position under hash h and returns it.
func (x *Index) Add(h uint64) int32 {
	p := int32(len(x.hashes))
	x.hashes = append(x.hashes, h)
	if 2*len(x.hashes) > len(x.slots) {
		x.rebuild(max(minSlots, 2*len(x.slots)))
	} else {
		x.insert(p)
	}
	return p
}

// Hash returns the hash position p was added under.
func (x *Index) Hash(p int32) uint64 { return x.hashes[p] }

// Len returns the number of positions.
func (x *Index) Len() int { return len(x.hashes) }

// Reserve readies an empty index for n positions, n a power of two:
// room for their hashes, and a table they fill at most half.
func (x *Index) Reserve(n int) {
	x.hashes = slices.Grow(x.hashes, n)
	if len(x.slots) < 2*n {
		x.slots = make([]int32, 2*n)
	}
}

// insert places position p in the first free slot of its probe
// sequence.
func (x *Index) insert(p int32) {
	mask := uint64(len(x.slots) - 1)
	i := x.hashes[p] & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = p + 1
}

// rebuild reinserts every position into a cleared table of n slots,
// reusing the current table when it is already that size.
func (x *Index) rebuild(n int) {
	if len(x.slots) == n {
		clear(x.slots)
	} else {
		x.slots = make([]int32, n)
	}
	for p := range x.hashes {
		x.insert(int32(p))
	}
}

// Truncate drops every position from n onward.
func (x *Index) Truncate(n int) {
	x.hashes = x.hashes[:n]
	x.rebuild(len(x.slots))
}

// Reset empties the index, keeping its storage.
func (x *Index) Reset() {
	if len(x.hashes) > 0 {
		x.hashes = x.hashes[:0]
		clear(x.slots)
	}
}
