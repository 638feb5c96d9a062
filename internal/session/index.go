package session

import "slices"

// index maps hashes to positions 0, 1, 2, … of an append-only list the
// caller keeps (the history's entries, or AskBatch's sub-batch). It is
// an open-addressed table probed linearly: slots is a power of two
// long, holds position+1 (0 is empty), and is kept at most half full.
// hashes[p] is the hash position p was added under, so growth and
// truncation reinsert positions without hashing again. The index never
// sees the questions themselves: find confirms a hash match with the
// caller's equality test.
type index struct {
	slots  []int32
	hashes []uint64
}

// minSlots is the table size the first add allocates.
const minSlots = 64

// historyBlock is the number of questions the history reserves room
// for at its first record: entries, hashes and table slots in one go,
// instead of growing each from empty. A role-preserving learn on 16–28
// variables asks a median of about 255 questions (p10 about 105, p90
// about 500); a longer session grows by doubling past the block. New
// reserves nothing, and neither does AskBatch's in-batch index, so a
// session pays nothing before its first question reaches the user.
const historyBlock = 256

// find returns the first position added under hash h for which eq
// holds.
func (x *index) find(h uint64, eq func(p int32) bool) (int32, bool) {
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

// add records the next position under hash h and returns it.
func (x *index) add(h uint64) int32 {
	p := int32(len(x.hashes))
	x.hashes = append(x.hashes, h)
	if 2*len(x.hashes) > len(x.slots) {
		x.rebuild(max(minSlots, 2*len(x.slots)))
	} else {
		x.insert(p)
	}
	return p
}

// reserve readies an empty index for n positions, n a power of two:
// room for their hashes, and a table they fill at most half.
func (x *index) reserve(n int) {
	x.hashes = slices.Grow(x.hashes, n)
	if len(x.slots) < 2*n {
		x.slots = make([]int32, 2*n)
	}
}

// insert places position p in the first free slot of its probe
// sequence.
func (x *index) insert(p int32) {
	mask := uint64(len(x.slots) - 1)
	i := x.hashes[p] & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = p + 1
}

// rebuild reinserts every position into a cleared table of n slots,
// reusing the current table when it is already that size.
func (x *index) rebuild(n int) {
	if len(x.slots) == n {
		clear(x.slots)
	} else {
		x.slots = make([]int32, n)
	}
	for p := range x.hashes {
		x.insert(int32(p))
	}
}

// truncate drops every position from n onward.
func (x *index) truncate(n int) {
	x.hashes = x.hashes[:n]
	x.rebuild(len(x.slots))
}

// reset empties the index, keeping its storage.
func (x *index) reset() {
	if len(x.hashes) > 0 {
		x.hashes = x.hashes[:0]
		clear(x.slots)
	}
}
