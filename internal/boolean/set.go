package boolean

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Set is a set of Boolean tuples: the Boolean-domain image of an
// object of the nested relation, and the payload of every membership
// question (§2.1.2). The zero value is the empty set, which the paper
// identifies with the empty box of chocolates.
//
// A Set is kept canonical: sorted ascending with no duplicates. Use
// NewSet or the mutating helpers; do not sort or append by hand.
type Set struct {
	tuples []Tuple
}

// NewSet builds a canonical set from the given tuples, deduplicating
// and sorting. The input slice is not retained. Input already in
// non-decreasing order skips the sort, so builders that know their
// order pass the tuples ascending.
func NewSet(tuples ...Tuple) Set {
	if len(tuples) == 0 {
		return Set{}
	}
	ts := make([]Tuple, len(tuples))
	copy(ts, tuples)
	if !slices.IsSorted(ts) {
		slices.Sort(ts)
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return Set{tuples: out}
}

// Size returns the number of distinct tuples in the set. The paper
// requires the number of tuples per question to be polynomial in n and
// k for interactive performance; experiment E7 records it.
func (s Set) Size() int { return len(s.tuples) }

// IsEmpty reports whether the set has no tuples.
func (s Set) IsEmpty() bool { return len(s.tuples) == 0 }

// Tuples returns the tuples in ascending order. The returned slice is
// shared; callers must not modify it.
func (s Set) Tuples() []Tuple { return s.tuples }

// Has reports whether t is a member of the set.
func (s Set) Has(t Tuple) bool {
	i := sort.Search(len(s.tuples), func(i int) bool { return s.tuples[i] >= t })
	return i < len(s.tuples) && s.tuples[i] == t
}

// With returns a new set with t added.
func (s Set) With(t Tuple) Set {
	if s.Has(t) {
		return s
	}
	return NewSet(append(append([]Tuple{}, s.tuples...), t)...)
}

// Without returns a new set with t removed.
func (s Set) Without(t Tuple) Set {
	if !s.Has(t) {
		return s
	}
	out := make([]Tuple, 0, len(s.tuples)-1)
	for _, u := range s.tuples {
		if u != t {
			out = append(out, u)
		}
	}
	return Set{tuples: out}
}

// Union returns the union of s and other.
func (s Set) Union(other Set) Set {
	if other.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return other
	}
	return NewSet(append(append([]Tuple{}, s.tuples...), other.tuples...)...)
}

// Equal reports whether two sets contain exactly the same tuples.
func (s Set) Equal(other Set) bool {
	if len(s.tuples) != len(other.tuples) {
		return false
	}
	for i, t := range s.tuples {
		if other.tuples[i] != t {
			return false
		}
	}
	return true
}

// AnyContains reports whether some tuple in the set contains the given
// conjunction of variables, i.e. whether the existential conjunction
// ∃ conj is satisfied by the object.
func (s Set) AnyContains(conj Tuple) bool {
	for _, t := range s.tuples {
		if t.Contains(conj) {
			return true
		}
	}
	return false
}

// Key returns a canonical comparable key for the set, usable as a map
// key when memoizing oracle answers and as a question's wire key. The
// encoding is the sorted tuple list in lowercase hex, which is unique
// per set; ParseKey inverts it. The key is built on every call: code
// that only needs an in-process index uses raw bytes instead.
func (s Set) Key() string { return buildKey(s.tuples) }

// AppendID appends the set's tuples to dst as uvarints (2 bytes a
// tuple at up to 14 variables) and returns the extended slice. A
// uvarint marks its own length, so like Key the encoding is unique per
// set, but it costs no formatting. It suits a caller that stores the
// bytes: the shared memo tier keys its arena with them, paying no
// allocation per question. A caller that only hashes a set, as the
// interaction history does, encodes fixed 8-byte words instead, which
// cost less to encode than uvarints.
func (s Set) AppendID(dst []byte) []byte {
	for _, t := range s.tuples {
		dst = binary.AppendUvarint(dst, uint64(t))
	}
	return dst
}

// ParseKey is the exact inverse of Key. It rejects every string Key
// cannot produce (upper-case or leading-zero digits, unsorted or
// repeated tuples), so for a parsed key, ParseKey(k).Key() == k.
func ParseKey(key string) (Set, error) {
	var tuples []Tuple
	if key != "" {
		for _, f := range strings.Split(key, ",") {
			v, err := strconv.ParseUint(f, 16, 64)
			if err != nil {
				return Set{}, fmt.Errorf("boolean: malformed set key %q", key)
			}
			tuples = append(tuples, Tuple(v))
		}
	}
	s := NewSet(tuples...)
	if s.Key() != key {
		return Set{}, fmt.Errorf("boolean: set key %q is not canonical", key)
	}
	return s, nil
}

// buildKey encodes the sorted tuple list as comma-separated lowercase
// hex, matching fmt's %x for each uint64 but without the fmt machinery.
func buildKey(tuples []Tuple) string {
	if len(tuples) == 0 {
		return ""
	}
	buf := make([]byte, 0, len(tuples)*17)
	for i, t := range tuples {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(t), 16)
	}
	return string(buf)
}

// Format renders the set in the paper's notation over universe u, e.g.
// "{111001, 011110}". Tuples print in ascending bitset order.
func (s Set) Format(u Universe) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range s.tuples {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(u.Format(t))
	}
	b.WriteByte('}')
	return b.String()
}

// ParseSet reads a set in the Format notation: comma- or
// whitespace-separated fixed-width tuples, optionally wrapped in
// braces. Examples: "{111, 011}", "111 011", "111,011".
func ParseSet(u Universe, s string) (Set, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "{")
	s = strings.TrimSuffix(s, "}")
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n'
	})
	tuples := make([]Tuple, 0, len(fields))
	for _, f := range fields {
		t, err := u.Parse(f)
		if err != nil {
			return Set{}, err
		}
		tuples = append(tuples, t)
	}
	return NewSet(tuples...), nil
}

// MustParseSet is ParseSet for fixtures; it panics on malformed input.
func MustParseSet(u Universe, s string) Set {
	set, err := ParseSet(u, s)
	if err != nil {
		panic(err)
	}
	return set
}

// AllObjects enumerates every distinct object over the universe: all
// 2^(2^n) subsets of the 2^n possible tuples. It is the search space
// that makes unrestricted query learning doubly exponential (§2) and
// is used by tests for exhaustive semantic-equivalence checks on small
// n. It panics if n > 4 (65536 objects), which would be astronomically
// large beyond that.
func AllObjects(u Universe) []Set {
	if u.n > 4 {
		panic("boolean: AllObjects is exhaustive and limited to n <= 4")
	}
	numTuples := 1 << uint(u.n)
	numObjects := 1 << uint(numTuples)
	objects := make([]Set, 0, numObjects)
	for mask := 0; mask < numObjects; mask++ {
		var tuples []Tuple
		for t := 0; t < numTuples; t++ {
			if mask&(1<<uint(t)) != 0 {
				tuples = append(tuples, Tuple(t))
			}
		}
		objects = append(objects, NewSet(tuples...))
	}
	return objects
}

// SampleObjects draws up to count distinct objects over the universe,
// for the sampled cross-validation range where AllObjects is
// intractable (n ≥ 5). The first two samples are the structural
// extremes — the empty box and the full object — and the rest are
// random subsets of the tuple space with density drawn uniformly per
// object, so sparse and dense regions are both probed. The result is a
// deterministic function of the rng stream.
func SampleObjects(rng *rand.Rand, u Universe, count int) []Set {
	numTuples := 1 << uint(u.n)
	seen := map[string]bool{}
	out := make([]Set, 0, count)
	add := func(s Set) {
		if k := s.Key(); len(out) < count && !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	add(Set{})
	add(NewSet(AllTuples(u)...))
	for attempts := 0; len(out) < count && attempts < 50*count+100; attempts++ {
		density := rng.Float64()
		var tuples []Tuple
		for t := 0; t < numTuples; t++ {
			if rng.Float64() < density {
				tuples = append(tuples, Tuple(t))
			}
		}
		add(NewSet(tuples...))
	}
	return out
}

// AllTuples enumerates every tuple of the universe in ascending order.
func AllTuples(u Universe) []Tuple {
	out := make([]Tuple, 1<<uint(u.n))
	for i := range out {
		out[i] = Tuple(i)
	}
	return out
}
