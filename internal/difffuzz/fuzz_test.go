package difffuzz

import (
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// Native go-fuzz targets: fuzz inputs are queries in the paper's
// shorthand (decoded by CaseFromShorthand), so the checked-in seeds
// under testdata/fuzz are human-readable and the mutator explores the
// space of query shapes through the parser. Each target feeds the
// decoded case to the full differential judge battery; any
// disagreement is a bug in one of the cross-validated components.
//
// CI runs each target for a short -fuzztime on top of the seed
// corpus; locally:
//
//	go test -run '^$' -fuzz '^FuzzQhorn1RoundTrip$' -fuzztime 30s ./internal/difffuzz
var (
	qhorn1Seeds = []string{
		"∀x1 ∃x2",               // empty-body universal + head-only part
		"∃x1 ∃x2 ∃x3 ∃x4",       // all parts head-only
		"∀x1x2 → x3 ∃x4",        // Fig 1 shape
		"∃x1x2 → x3 ∀x4x5 → x6", // both quantifiers with bodies
		"∀x1x2x3x4x5x6x7 → x8",  // one θ-sized body at the size bound
		"A x1 x2 -> x3 E x4",    // ASCII spelling
	}
	rpSeeds = []string{
		"∀x1 → x2", // repairable minimal universal
		"∀x1x2 → x7 ∀x3x4 → x7 ∀x5x6 → x7", // θ=3 bodies per head (Thm 3.6 bound)
		"∃x1x2 ∃x2x3 ∃x3x4 ∃x1x4",          // k overlapping conjunctions
		"∀x5 ∀x1x2 → x4 ∃x3",               // head-only part beside Horn parts
		"∀x1 → x3 ∀x2 → x3 ∃x1x2",          // shared head, conj over bodies
	}
	verifySeeds = [][2]string{
		{"∀x1x2 → x3 ∃x4", "∀x1x2 → x3 ∃x4"}, // equivalent pair: must verify
		{"∃x1x2x3 ∃x4", "∀x1x2 → x3 ∃x4"},    // dropped guarantee-clause witness
		{"∀x2 → x3 ∃x1", "∀x1 → x3 ∃x2"},     // permuted variables
		{"∃x1", "∃x2"},                       // disjoint singletons
		{"∀x1", "∃x1"},                       // quantifier flip on one variable
	}
)

func fuzzCheck(t *testing.T, c Case) {
	t.Helper()
	for _, d := range CheckCase(c, Options{}).Disagreements {
		t.Errorf("%s", d)
	}
}

// FuzzQhorn1RoundTrip: any parseable qhorn-1 query must round-trip
// through learn.Qhorn1 and every cross-validating judge.
func FuzzQhorn1RoundTrip(f *testing.F) {
	for _, s := range qhorn1Seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := CaseFromShorthand(ClassQhorn1, s)
		if !ok {
			t.Skip()
		}
		fuzzCheck(t, c)
	})
}

// FuzzRolePreservingRoundTrip: same for learn.RolePreserving, with
// inputs repaired into the class instead of rejected.
func FuzzRolePreservingRoundTrip(f *testing.F) {
	for _, s := range rpSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := CaseFromShorthand(ClassRP, s)
		if !ok {
			t.Skip()
		}
		fuzzCheck(t, c)
	})
}

// FuzzVerifySoundness: for any pair (given, hidden) of role-preserving
// queries, the verification set of given run against an oracle for
// hidden must answer Correct exactly when the two are equivalent
// (Theorem 4.2).
func FuzzVerifySoundness(f *testing.F) {
	for _, pair := range verifySeeds {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, given, hidden string) {
		c, ok := VerifyCaseFromShorthand(given, hidden)
		if !ok {
			t.Skip()
		}
		fuzzCheck(t, c)
	})
}

// maxFuzzVars caps the universe size decoded from fuzz inputs and
// repro files: large universes make single checks slow without adding
// shape coverage, which is what fuzzing explores.
const maxFuzzVars = 8

// CaseFromShorthand decodes a native-fuzz input into a learning case:
// the universe is sized by the largest variable the shorthand
// mentions (capped at maxFuzzVars), the string is parsed as a query,
// and the query must lie in the class — qhorn-1 inputs outside the
// class are rejected (the fuzzer explores the parser there already),
// while role-preservation is repaired by dropping offending universal
// expressions so more of the input space reaches the engine.
func CaseFromShorthand(class Class, s string) (Case, bool) {
	q, ok := parseFuzzQuery(s)
	if !ok {
		return Case{}, false
	}
	switch class {
	case ClassQhorn1:
		if !q.IsQhorn1() {
			return Case{}, false
		}
	default:
		q = RepairRolePreserving(q)
	}
	return Case{Class: class, Hidden: q}, true
}

// VerifyCaseFromShorthand decodes the two-string fuzz input of
// FuzzVerifySoundness: both queries are parsed over the joint
// universe and repaired to role preservation.
func VerifyCaseFromShorthand(given, hidden string) (Case, bool) {
	n := maxVarIndex(given)
	if m := maxVarIndex(hidden); m > n {
		n = m
	}
	if n < 1 || n > maxFuzzVars {
		return Case{}, false
	}
	u := boolean.MustUniverse(n)
	g, err := query.Parse(u, given)
	if err != nil {
		return Case{}, false
	}
	h, err := query.Parse(u, hidden)
	if err != nil {
		return Case{}, false
	}
	return Case{
		Class:  ClassVerify,
		Hidden: RepairRolePreserving(h),
		Given:  RepairRolePreserving(g),
	}, true
}

func parseFuzzQuery(s string) (query.Query, bool) {
	n := maxVarIndex(s)
	if n < 1 || n > maxFuzzVars {
		return query.Query{}, false
	}
	q, err := query.Parse(boolean.MustUniverse(n), s)
	if err != nil {
		return query.Query{}, false
	}
	return q, true
}

// maxVarIndex scans the shorthand for its largest xN index without
// parsing, so fuzz inputs size their own universe.
func maxVarIndex(s string) int {
	max := 0
	rs := []rune(s)
	for i := 0; i < len(rs); i++ {
		if rs[i] != 'x' && rs[i] != 'X' {
			continue
		}
		j := i + 1
		idx := 0
		for j < len(rs) && rs[j] >= '0' && rs[j] <= '9' {
			idx = idx*10 + int(rs[j]-'0')
			j++
			if idx > boolean.MaxVars {
				return idx // caller rejects oversized universes
			}
		}
		if j > i+1 && idx > max {
			max = idx
		}
		i = j - 1
	}
	return max
}

// RepairRolePreserving drops universal Horn expressions until no
// universal head reappears in a body: the deterministic repair that
// coerces arbitrary parsed queries into the verifier's domain.
func RepairRolePreserving(q query.Query) query.Query {
	for !q.IsRolePreserving() {
		// Role preservation only constrains universal Horn
		// expressions: a variable may not be a universal head and a
		// universal body variable at once. Each round drops the first
		// universal touching a violating variable, so the loop
		// terminates (the query loses an expression every iteration).
		var heads, bodies boolean.Tuple
		for _, e := range q.Exprs {
			if e.Quant == query.Forall {
				heads = heads.With(e.Head)
				bodies = bodies.Union(e.Body)
			}
		}
		violating := heads.Intersect(bodies)
		for i, e := range q.Exprs {
			if e.Quant != query.Forall {
				continue
			}
			if violating.Has(e.Head) || e.Body.Intersects(violating) {
				q = dropExprAt(q, i)
				break
			}
		}
	}
	return q
}
