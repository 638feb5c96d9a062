package revise

import (
	"sort"

	"qhorn/internal/query"
)

// Edit is one semantic difference between two queries, expressed over
// their normal forms.
type Edit struct {
	// Added is true when the expression exists in the second query
	// but not the first.
	Added bool
	// Expr is the differing expression (a dominant universal Horn
	// rule or a dominant conjunction).
	Expr query.Expr
}

// String renders the edit with a +/− prefix.
func (e Edit) String() string {
	sign := "−"
	if e.Added {
		sign = "+"
	}
	return sign + " " + e.Expr.String()
}

// Diff lists the semantic differences between two role-preserving
// queries as expression-level edits on their normal forms: the
// explanation a query interface shows next to a revision. An empty
// diff means the queries are equivalent, and len(Diff) == Distance.
func Diff(from, to query.Query) []Edit {
	var out []Edit
	fu, tu := universalTuples(from), universalTuples(to)
	nfFrom, nfTo := from.Normalize(), to.Normalize()
	for _, e := range nfFrom.DominantUniversals() {
		if !tu[headTuple{e.Head, nfFrom.UniversalDistinguishingTuple(e)}] {
			out = append(out, Edit{Added: false, Expr: e})
		}
	}
	for _, e := range nfTo.DominantUniversals() {
		if !fu[headTuple{e.Head, nfTo.UniversalDistinguishingTuple(e)}] {
			out = append(out, Edit{Added: true, Expr: e})
		}
	}
	fc, tc := conjTuples(from), conjTuples(to)
	var conjEdits []Edit
	for c := range fc {
		if !tc[c] {
			conjEdits = append(conjEdits, Edit{Added: false, Expr: query.Conjunction(c.tuple)})
		}
	}
	for c := range tc {
		if !fc[c] {
			conjEdits = append(conjEdits, Edit{Added: true, Expr: query.Conjunction(c.tuple)})
		}
	}
	sort.Slice(conjEdits, func(i, j int) bool {
		a, b := conjEdits[i], conjEdits[j]
		if a.Added != b.Added {
			return !a.Added
		}
		return a.Expr.Body < b.Expr.Body
	})
	return append(out, conjEdits...)
}

// Explain renders a diff as one line per edit, for CLIs.
func Explain(from, to query.Query) string {
	edits := Diff(from, to)
	if len(edits) == 0 {
		return "(semantically identical)"
	}
	s := ""
	for i, e := range edits {
		if i > 0 {
			s += "\n"
		}
		s += e.String()
	}
	return s
}
