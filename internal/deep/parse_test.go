package deep

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// The depth-d query parser is a test fixture: no binary reads deep
// queries from text; the tests and examples write them in the
// notation Query.String prints.

// varsRE matches one or more x<index> variables, spaces allowed.
var varsRE = regexp.MustCompile(`^\s*(?:[xX]\d+\s*)+$`)

// Parse reads a depth-d query in the notation Query.String prints,
// e.g. "∀∃(x1x2 → x3) ∃∀(x4)": expressions, each a quantifier prefix
// directly followed by a parenthesized (Horn) expression. 'A', 'E'
// and "->" stand for ∀, ∃ and →; "⊤" or "" is the empty query. Every
// prefix must have exactly depth quantifiers.
func Parse(u boolean.Universe, depth int, s string) (Query, error) {
	q := Query{U: u, Depth: depth}
	rest := strings.TrimSpace(s)
	if rest == "⊤" {
		rest = ""
	}
	for rest != "" {
		open, closing := strings.IndexByte(rest, '('), strings.IndexByte(rest, ')')
		if open <= 0 || closing < open {
			return Query{}, fmt.Errorf("deep: expected prefix(expression) at %q", rest)
		}
		e := Expr{Head: query.NoHead}
		for _, r := range rest[:open] {
			switch r {
			case '∀', 'A':
				e.Prefix = append(e.Prefix, query.Forall)
			case '∃', 'E':
				e.Prefix = append(e.Prefix, query.Exists)
			default:
				return Query{}, fmt.Errorf("deep: bad quantifier prefix %q", rest[:open])
			}
		}
		body, head, arrow := strings.Cut(strings.Replace(rest[open+1:closing], "->", "→", 1), "→")
		var err error
		if e.Body, err = parseVars(u, body); err != nil {
			return Query{}, err
		}
		if arrow {
			h, err := parseVars(u, head)
			if err != nil {
				return Query{}, err
			}
			if h.Count() != 1 {
				return Query{}, fmt.Errorf("deep: head must be a single variable")
			}
			e.Head = h.Lowest()
		}
		q.Exprs = append(q.Exprs, e)
		rest = strings.TrimLeftFunc(rest[closing+1:], unicode.IsSpace)
	}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// MustParse is Parse for fixtures; it panics on error.
func MustParse(u boolean.Universe, depth int, s string) Query {
	q, err := Parse(u, depth, s)
	if err != nil {
		panic(err)
	}
	return q
}

// parseVars reads one or more x<index> variables of the universe.
func parseVars(u boolean.Universe, s string) (boolean.Tuple, error) {
	if !varsRE.MatchString(s) {
		return 0, fmt.Errorf("deep: expected variables, got %q", s)
	}
	var t boolean.Tuple
	for _, v := range strings.FieldsFunc(s, func(r rune) bool { return r == 'x' || r == 'X' || unicode.IsSpace(r) }) {
		idx, err := strconv.Atoi(v)
		if err != nil || idx < 1 || idx > u.N() {
			return 0, fmt.Errorf("deep: variable x%s outside universe of %d variables", v, u.N())
		}
		t = t.With(idx - 1)
	}
	return t, nil
}

// Validate checks prefix lengths and variable ranges.
func (q Query) Validate() error {
	for _, e := range q.Exprs {
		if len(e.Prefix) != q.Depth {
			return fmt.Errorf("deep: expression %s has prefix length %d, query depth %d", e, len(e.Prefix), q.Depth)
		}
		if !q.U.Contains(e.Body) {
			return fmt.Errorf("deep: body outside universe")
		}
		if e.Head != query.NoHead {
			if e.Head < 0 || e.Head >= q.U.N() {
				return fmt.Errorf("deep: head x%d outside universe", e.Head+1)
			}
			if e.Body.Has(e.Head) {
				return fmt.Errorf("deep: head x%d in its own body", e.Head+1)
			}
		} else if e.Body.IsEmpty() {
			return fmt.Errorf("deep: empty conjunction")
		}
	}
	return nil
}

func TestParseRoundTrip(t *testing.T) {
	u := boolean.MustUniverse(4)
	inputs := []string{
		"∀∃(x1x2 → x3) ∃∀(x4)",
		"∀∀(x1 → x2)",
		"∃∃(x1x2x3x4)",
		"⊤",
	}
	for _, in := range inputs {
		q := MustParse(u, 2, in)
		back := MustParse(u, 2, q.String())
		if q.String() != back.String() {
			t.Errorf("round trip %q -> %q -> %q", in, q.String(), back.String())
		}
	}
}

func TestParseASCII(t *testing.T) {
	u := boolean.MustUniverse(4)
	a := MustParse(u, 2, "AE(x1x2 -> x3) EA(x4)")
	b := MustParse(u, 2, "∀∃(x1x2 → x3) ∃∀(x4)")
	if a.String() != b.String() {
		t.Errorf("ASCII parse differs: %s vs %s", a, b)
	}
}

func TestParseMatchesConstructed(t *testing.T) {
	u := boolean.MustUniverse(4)
	q := MustParse(u, 2, "∀∃(x1x2 → x3)")
	want := Query{U: u, Depth: 2, Exprs: []Expr{{
		Prefix: []query.Quantifier{query.Forall, query.Exists},
		Body:   boolean.FromVars(0, 1),
		Head:   2,
	}}}
	if q.String() != want.String() {
		t.Errorf("parsed %s, want %s", q, want)
	}
	// Semantics agree on a few objects.
	dark := Leaf(u.MustParse("1110"))
	shelf := Set(Set(dark))
	if q.Eval(shelf) != want.Eval(shelf) {
		t.Error("parsed query evaluates differently")
	}
}

func TestParseErrors(t *testing.T) {
	u := boolean.MustUniverse(3)
	for _, bad := range []string{
		"(x1)",         // no prefix
		"∀x1",          // missing parens
		"∀()",          // no variables
		"∀(x9)",        // out of range
		"∀(x1 → x1)",   // head in body
		"∀(x1 → x2x3)", // multi-variable head
		"∀∃(x1)",       // prefix deeper than query depth 1
		"∀(x1",         // unclosed
		"∀(x1 -",       // dangling arrow
		"∀(x)",         // no index
	} {
		if _, err := Parse(u, 1, bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestParseDepthMismatch(t *testing.T) {
	u := boolean.MustUniverse(2)
	if _, err := Parse(u, 2, "∀(x1)"); err == nil {
		t.Error("short prefix accepted")
	}
	if _, err := Parse(u, 1, "∀(x1)"); err != nil {
		t.Error(err)
	}
}
