// Package nested implements the data-domain substrate of the qhorn
// paper (§2, Fig. 1): nested relations with single-level nesting —
// objects that embed a set of flat tuples — together with the
// Boolean abstraction that turns data tuples into Boolean tuples over
// user-specified propositions, and the reverse synthesis that turns
// the learner's Boolean membership questions back into concrete data
// objects the user can look at.
//
// This is the DataPlay-style layer that the learning and verification
// algorithms of the paper sit on: the algorithms operate purely in the
// Boolean domain (internal/boolean, internal/query) and this package
// carries them to and from real data.
package nested

import (
	"fmt"
	"strings"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// Kind is the type of an attribute value.
type Kind int

// The supported attribute kinds.
const (
	String Kind = iota
	Bool
	Number
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Bool:
		return "bool"
	case Number:
		return "number"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is one attribute value of a tuple: a string, boolean or
// number. The zero value is the empty string.
type Value struct {
	kind Kind
	s    string
	b    bool
	f    float64
}

// S returns a string value.
func S(s string) Value { return Value{kind: String, s: s} }

// B returns a boolean value.
func B(b bool) Value { return Value{kind: Bool, b: b} }

// N returns a numeric value.
func N(f float64) Value { return Value{kind: Number, f: f} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Bool returns the boolean payload (false for other kinds).
func (v Value) Bool() bool { return v.kind == Bool && v.b }

// Str returns the string payload ("" for other kinds).
func (v Value) Str() string {
	if v.kind == String {
		return v.s
	}
	return ""
}

// Num returns the numeric payload (0 for other kinds).
func (v Value) Num() float64 {
	if v.kind == Number {
		return v.f
	}
	return 0
}

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool { return v == o }

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case String:
		return v.s
	case Bool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return strings.TrimSuffix(strings.TrimSuffix(fmt.Sprintf("%.4f", v.f), "0000"), ".")
	}
}

// Attr declares one attribute of the embedded flat relation.
type Attr struct {
	Name string
	Kind Kind
}

// Schema describes a nested relation with single-level nesting
// (Definition 2.2): objects named Object embedding a set of flat
// tuples named Tuple over the attributes Attrs, e.g.
// Box(name, Chocolate(isDark, hasFilling, …)).
type Schema struct {
	Object string
	Tuple  string
	Attrs  []Attr
}

// AttrIndex returns the index of the named attribute, or -1.
func (s Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the schema for duplicate or empty attribute names.
func (s Schema) Validate() error {
	seen := map[string]bool{}
	for _, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("nested: empty attribute name in schema %s", s.Object)
		}
		if seen[a.Name] {
			return fmt.Errorf("nested: duplicate attribute %q in schema %s", a.Name, s.Object)
		}
		seen[a.Name] = true
	}
	return nil
}

// Tuple is one element of the embedded flat relation: values aligned
// with the schema's attributes.
type Tuple []Value

// Object is one element of the nested relation: a named set of
// embedded tuples (a box of chocolates).
type Object struct {
	Name   string
	Tuples []Tuple
}

// Dataset is an in-memory instance of a nested relation.
type Dataset struct {
	Schema  Schema
	Objects []Object
}

// Validate checks that every tuple matches the schema's arity and
// kinds.
func (d Dataset) Validate() error {
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	for _, o := range d.Objects {
		for ti, t := range o.Tuples {
			if len(t) != len(d.Schema.Attrs) {
				return fmt.Errorf("nested: object %q tuple %d has %d values, schema has %d attributes",
					o.Name, ti, len(t), len(d.Schema.Attrs))
			}
			for i, v := range t {
				if v.Kind() != d.Schema.Attrs[i].Kind {
					return fmt.Errorf("nested: object %q tuple %d attribute %q: kind %s, schema wants %s",
						o.Name, ti, d.Schema.Attrs[i].Name, v.Kind(), d.Schema.Attrs[i].Kind)
				}
			}
		}
	}
	return nil
}

// Op is a comparison operator of a proposition.
type Op int

// The supported proposition operators.
const (
	Eq Op = iota
	Ne
	Lt
	Gt
	IsTrue
	IsFalse
)

// String returns the operator's symbol.
func (op Op) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "≠"
	case Lt:
		return "<"
	case Gt:
		return ">"
	case IsTrue:
		return "is true"
	case IsFalse:
		return "is false"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Proposition is one simple Boolean predicate over a tuple of the
// embedded relation — the atoms users specify before learning starts
// (§2), e.g. p1: c.isDark or p3: c.origin = Madagascar.
type Proposition struct {
	// Name is a display label, e.g. "isDark".
	Name string
	// Attr is the attribute the proposition tests.
	Attr string
	// Op is the comparison.
	Op Op
	// Val is the right-hand side for Eq/Ne/Lt/Gt.
	Val Value
}

// String renders the proposition.
func (p Proposition) String() string {
	switch p.Op {
	case IsTrue:
		return p.Attr
	case IsFalse:
		return "¬" + p.Attr
	default:
		return fmt.Sprintf("%s %s %s", p.Attr, p.Op, p.Val)
	}
}

// Holds evaluates the proposition on a tuple under the schema. An
// unknown attribute evaluates to false.
func (p Proposition) Holds(s Schema, t Tuple) bool {
	i := s.AttrIndex(p.Attr)
	if i < 0 || i >= len(t) {
		return false
	}
	v := t[i]
	switch p.Op {
	case Eq:
		return v.Equal(p.Val)
	case Ne:
		return !v.Equal(p.Val)
	case Lt:
		return v.Kind() == Number && p.Val.Kind() == Number && v.Num() < p.Val.Num()
	case Gt:
		return v.Kind() == Number && p.Val.Kind() == Number && v.Num() > p.Val.Num()
	case IsTrue:
		return v.Bool()
	case IsFalse:
		return v.Kind() == Bool && !v.Bool()
	default:
		return false
	}
}

// Propositions is the ordered collection of propositions that defines
// the Boolean universe: proposition i is Boolean variable x_{i+1}.
type Propositions struct {
	Schema Schema
	Props  []Proposition
}

// Universe returns the Boolean universe of the propositions.
func (ps Propositions) Universe() boolean.Universe {
	return boolean.MustUniverse(len(ps.Props))
}

// Abstract maps a data tuple into the Boolean domain (Fig. 1): bit i
// is set iff proposition i holds on the tuple.
func (ps Propositions) Abstract(t Tuple) boolean.Tuple {
	var bt boolean.Tuple
	for i, p := range ps.Props {
		if p.Holds(ps.Schema, t) {
			bt = bt.With(i)
		}
	}
	return bt
}

// AbstractObject maps an object into a Boolean tuple-set, collapsing
// duplicate Boolean classes exactly as the paper's model does.
func (ps Propositions) AbstractObject(o Object) boolean.Set {
	tuples := make([]boolean.Tuple, 0, len(o.Tuples))
	for _, t := range o.Tuples {
		tuples = append(tuples, ps.Abstract(t))
	}
	return boolean.NewSet(tuples...)
}

// Interferences returns the pairs of propositions that provably
// interfere (§2): the true/false assignment of one constrains the
// other, violating the independence assumption of the Boolean
// abstraction. Detected cases: two Eq propositions on the same
// attribute with different values (pm → ¬pb), an Eq and an Ne on the
// same attribute with the same value (each the other's negation), and
// IsTrue/IsFalse on the same attribute.
func (ps Propositions) Interferences() [][2]int {
	var out [][2]int
	for i := 0; i < len(ps.Props); i++ {
		for j := i + 1; j < len(ps.Props); j++ {
			if ps.interfere(ps.Props[i], ps.Props[j]) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func (ps Propositions) interfere(a, b Proposition) bool {
	if a.Attr != b.Attr {
		return false
	}
	switch {
	case a.Op == Eq && b.Op == Eq:
		return !a.Val.Equal(b.Val)
	case (a.Op == Eq && b.Op == Ne || a.Op == Ne && b.Op == Eq):
		return a.Val.Equal(b.Val)
	case a.Op == IsTrue && b.Op == IsFalse, a.Op == IsFalse && b.Op == IsTrue:
		return true
	case a.Op == Lt && b.Op == Gt:
		return a.Val.Kind() == Number && b.Val.Kind() == Number && a.Val.Num() <= b.Val.Num()
	default:
		return false
	}
}

// Concretize synthesizes a data tuple whose Boolean abstraction is
// exactly bt — the step that turns the learner's Boolean membership
// questions into objects the user can classify (§2.1.2). It returns
// an error when the assignment is unsatisfiable, which can only
// happen when propositions interfere.
func (ps Propositions) Concretize(bt boolean.Tuple) (Tuple, error) {
	t := make(Tuple, len(ps.Schema.Attrs))
	// Default values per kind.
	for i, a := range ps.Schema.Attrs {
		switch a.Kind {
		case String:
			t[i] = S("·")
		case Bool:
			t[i] = B(false)
		case Number:
			t[i] = N(0)
		}
	}
	// First pass: satisfy the true propositions.
	for i, p := range ps.Props {
		if !bt.Has(i) {
			continue
		}
		ai := ps.Schema.AttrIndex(p.Attr)
		if ai < 0 {
			return nil, fmt.Errorf("nested: proposition %s references unknown attribute %q", p, p.Attr)
		}
		switch p.Op {
		case Eq:
			t[ai] = p.Val
		case Ne:
			t[ai] = distinctValue(p.Val)
		case IsTrue:
			t[ai] = B(true)
		case IsFalse:
			t[ai] = B(false)
		case Lt:
			t[ai] = N(p.Val.Num() - 1)
		case Gt:
			t[ai] = N(p.Val.Num() + 1)
		}
	}
	// Repair pass: adjust attributes so false propositions are false,
	// without breaking true ones. Iterate to a fixpoint per attribute.
	for ai := range ps.Schema.Attrs {
		if v, ok := ps.solveAttr(ai, bt, t[ai]); ok {
			t[ai] = v
		} else {
			return nil, fmt.Errorf("nested: assignment %v unsatisfiable for attribute %q (interfering propositions)",
				bt.Vars(), ps.Schema.Attrs[ai].Name)
		}
	}
	// Final check.
	if got := ps.Abstract(t); got != bt {
		return nil, fmt.Errorf("nested: synthesized tuple abstracts to %v, want %v (interfering propositions)",
			got.Vars(), bt.Vars())
	}
	return t, nil
}

// solveAttr finds a value for attribute ai consistent with every
// proposition on that attribute under assignment bt, preferring the
// current candidate.
func (ps Propositions) solveAttr(ai int, bt boolean.Tuple, current Value) (Value, bool) {
	attr := ps.Schema.Attrs[ai]
	var related []int
	for pi, p := range ps.Props {
		if ps.Schema.AttrIndex(p.Attr) == ai {
			related = append(related, pi)
		}
	}
	// A full-width probe tuple so Holds indexes the right attribute;
	// only attribute ai matters to the related propositions.
	probe := make(Tuple, len(ps.Schema.Attrs))
	okFull := func(v Value) bool {
		probe[ai] = v
		for _, pi := range related {
			if ps.Props[pi].Holds(ps.Schema, probe) != bt.Has(pi) {
				return false
			}
		}
		return true
	}
	if okFull(current) {
		return current, true
	}
	// Candidate values: every proposition constant, plus perturbed
	// variants, plus kind defaults.
	var cands []Value
	for _, pi := range related {
		p := ps.Props[pi]
		cands = append(cands, p.Val, distinctValue(p.Val))
		if p.Val.Kind() == Number {
			cands = append(cands, N(p.Val.Num()-1), N(p.Val.Num()+1))
		}
	}
	switch attr.Kind {
	case Bool:
		cands = append(cands, B(true), B(false))
	case String:
		cands = append(cands, S("·"), S("··"))
	case Number:
		cands = append(cands, N(0), N(1e9), N(-1e9))
	}
	for _, v := range cands {
		if v.Kind() == attr.Kind && okFull(v) {
			return v, true
		}
	}
	return Value{}, false
}

// distinctValue returns a value of the same kind guaranteed different
// from v.
func distinctValue(v Value) Value {
	switch v.Kind() {
	case String:
		return S(v.Str() + "′")
	case Bool:
		return B(!v.Bool())
	default:
		return N(v.Num() + 1)
	}
}

// ConcretizeQuestion synthesizes a data object for a Boolean
// membership question, naming it name.
func (ps Propositions) ConcretizeQuestion(name string, q boolean.Set) (Object, error) {
	o := Object{Name: name}
	for _, bt := range q.Tuples() {
		t, err := ps.Concretize(bt)
		if err != nil {
			return Object{}, err
		}
		o.Tuples = append(o.Tuples, t)
	}
	return o, nil
}

// Execute runs a qhorn query over the dataset and returns the objects
// classified as answers (Definition 2.4). The query's universe must
// match the proposition count.
func Execute(q query.Query, ps Propositions, d Dataset) ([]Object, error) {
	if q.N() != len(ps.Props) {
		return nil, fmt.Errorf("nested: query over %d variables, %d propositions", q.N(), len(ps.Props))
	}
	var out []Object
	for _, o := range d.Objects {
		if q.Eval(ps.AbstractObject(o)) {
			out = append(out, o)
		}
	}
	return out, nil
}

// FormatObject renders an object as an aligned text table for
// interactive sessions.
func FormatObject(s Schema, o Object) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %q (%d %s tuples)\n", s.Object, o.Name, len(o.Tuples), s.Tuple)
	widths := make([]int, len(s.Attrs))
	for i, a := range s.Attrs {
		widths[i] = len(a.Name)
	}
	rows := make([][]string, len(o.Tuples))
	for ti, t := range o.Tuples {
		rows[ti] = make([]string, len(t))
		for i, v := range t {
			rows[ti][i] = v.String()
			if len(rows[ti][i]) > widths[i] {
				widths[i] = len(rows[ti][i])
			}
		}
	}
	for i, a := range s.Attrs {
		fmt.Fprintf(&b, "  %-*s", widths[i]+2, a.Name)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "  %-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
