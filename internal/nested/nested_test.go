package nested

import (
	"math/rand"
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

func TestFig1Abstraction(t *testing.T) {
	// Figure 1: the two boxes map to the Boolean sets
	// S1 = {111, 100, 111} and S2 = {110, 010, 010} over
	// (isDark, hasFilling, origin=Madagascar).
	ps := ChocolatePropositions()
	d := Fig1Dataset()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	u := ps.Universe()
	s1 := ps.AbstractObject(d.Objects[0])
	// Fig 1 shows S1 = {111, 110, 100}: Madagascar dark+filled (111),
	// Belgium dark unfilled (100), Germany dark filled (110).
	want1 := boolean.MustParseSet(u, "{111, 100, 110}")
	if !s1.Equal(want1) {
		t.Errorf("S1 = %s, want %s", s1.Format(u), want1.Format(u))
	}
	s2 := ps.AbstractObject(d.Objects[1])
	// Europe's Finest: dark filled Belgium (110), milk filled ×2 (010).
	want2 := boolean.MustParseSet(u, "{110, 010}")
	if !s2.Equal(want2) {
		t.Errorf("S2 = %s, want %s", s2.Format(u), want2.Format(u))
	}
}

func TestExecuteIntroQuery(t *testing.T) {
	// Query (1): ∀ isDark ∧ ∃ (hasFilling ∧ fromMadagascar).
	ps := ChocolatePropositions()
	u := ps.Universe()
	q := query.MustParse(u, "∀x1 ∃x2x3")
	got, err := Execute(q, ps, Fig1Dataset())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "Global Ground" {
		t.Fatalf("Execute = %v", got)
	}
}

func TestConcretizeRoundTrip(t *testing.T) {
	ps := ChocolatePropositions()
	u := ps.Universe()
	for _, bt := range boolean.AllTuples(u) {
		tup, err := ps.Concretize(bt)
		if err != nil {
			t.Fatalf("Concretize(%s): %v", u.Format(bt), err)
		}
		if got := ps.Abstract(tup); got != bt {
			t.Errorf("round trip %s -> %s", u.Format(bt), u.Format(got))
		}
	}
}

func TestConcretizeQuestion(t *testing.T) {
	ps := ChocolatePropositions()
	u := ps.Universe()
	q := boolean.MustParseSet(u, "{111, 011}")
	obj, err := ps.ConcretizeQuestion("probe", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Tuples) != 2 {
		t.Fatalf("tuples = %d", len(obj.Tuples))
	}
	if !ps.AbstractObject(obj).Equal(q) {
		t.Errorf("object abstracts to %s", ps.AbstractObject(obj).Format(u))
	}
}

func TestConcretizeInterferenceFails(t *testing.T) {
	// Two equality propositions on the same attribute interfere: the
	// assignment "both true" is unsatisfiable (§2).
	ps := Propositions{
		Schema: ChocolateSchema(),
		Props: []Proposition{
			{Name: "fromMadagascar", Attr: "origin", Op: Eq, Val: S("Madagascar")},
			{Name: "fromBelgium", Attr: "origin", Op: Eq, Val: S("Belgium")},
		},
	}
	if ints := ps.Interferences(); len(ints) != 1 || ints[0] != [2]int{0, 1} {
		t.Fatalf("Interferences = %v", ints)
	}
	if _, err := ps.Concretize(boolean.FromVars(0, 1)); err == nil {
		t.Fatal("interfering assignment concretized")
	}
	// But each alone is fine.
	if _, err := ps.Concretize(boolean.FromVars(0)); err != nil {
		t.Fatal(err)
	}
}

func TestInterferenceKinds(t *testing.T) {
	s := Schema{Object: "O", Tuple: "T", Attrs: []Attr{
		{Name: "a", Kind: Bool}, {Name: "n", Kind: Number}, {Name: "s", Kind: String},
	}}
	tests := []struct {
		a, b Proposition
		want bool
	}{
		{Proposition{Attr: "a", Op: IsTrue}, Proposition{Attr: "a", Op: IsFalse}, true},
		{Proposition{Attr: "s", Op: Eq, Val: S("x")}, Proposition{Attr: "s", Op: Ne, Val: S("x")}, true},
		{Proposition{Attr: "s", Op: Eq, Val: S("x")}, Proposition{Attr: "s", Op: Ne, Val: S("y")}, false},
		{Proposition{Attr: "n", Op: Lt, Val: N(3)}, Proposition{Attr: "n", Op: Gt, Val: N(5)}, true},
		{Proposition{Attr: "n", Op: Lt, Val: N(5)}, Proposition{Attr: "n", Op: Gt, Val: N(3)}, false},
		{Proposition{Attr: "a", Op: IsTrue}, Proposition{Attr: "s", Op: Eq, Val: S("x")}, false},
	}
	for _, tc := range tests {
		ps := Propositions{Schema: s, Props: []Proposition{tc.a, tc.b}}
		got := len(ps.Interferences()) > 0
		if got != tc.want {
			t.Errorf("interfere(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestConcretizeNumericProps(t *testing.T) {
	s := Schema{Object: "O", Tuple: "T", Attrs: []Attr{{Name: "price", Kind: Number}}}
	ps := Propositions{Schema: s, Props: []Proposition{
		{Name: "cheap", Attr: "price", Op: Lt, Val: N(10)},
		{Name: "luxury", Attr: "price", Op: Gt, Val: N(100)},
	}}
	u := ps.Universe()
	for _, bt := range []boolean.Tuple{0, boolean.FromVars(0), boolean.FromVars(1)} {
		tup, err := ps.Concretize(bt)
		if err != nil {
			t.Fatalf("Concretize(%s): %v", u.Format(bt), err)
		}
		if got := ps.Abstract(tup); got != bt {
			t.Errorf("round trip %s -> %s (price %s)", u.Format(bt), u.Format(got), tup[0])
		}
	}
	// cheap ∧ luxury is unsatisfiable.
	if _, err := ps.Concretize(boolean.FromVars(0, 1)); err == nil {
		t.Fatal("price < 10 ∧ price > 100 concretized")
	}
}

// TestEndToEndLearningOverData: the full loop of the paper — a hidden
// query about chocolate boxes, an oracle that classifies synthesized
// boxes by evaluating the data tuples, and the qhorn-1 learner
// recovering the query.
func TestEndToEndLearningOverData(t *testing.T) {
	ps := ChocolatePropositions()
	u := ps.Universe()
	intended := query.MustParse(u, "∀x1 ∃x2x3")
	// The "user": classifies concrete data objects, not Boolean sets.
	user := oracle.Func(func(s boolean.Set) bool {
		obj, err := ps.ConcretizeQuestion("q", s)
		if err != nil {
			t.Fatalf("concretize: %v", err)
		}
		return intended.Eval(ps.AbstractObject(obj))
	})
	learned, _ := learn.Run(u, user)
	if !learned.Equivalent(intended) {
		t.Fatalf("learned %s, want %s", learned, intended)
	}
	// Execute the learned query over random data and cross-check
	// against the intended query.
	rng := rand.New(rand.NewSource(41))
	d := RandomChocolates(rng, 100, 6)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	gotObjs, err := Execute(learned, ps, d)
	if err != nil {
		t.Fatal(err)
	}
	wantObjs, err := Execute(intended, ps, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotObjs) != len(wantObjs) {
		t.Fatalf("learned query returns %d boxes, intended %d", len(gotObjs), len(wantObjs))
	}
	for i := range gotObjs {
		if gotObjs[i].Name != wantObjs[i].Name {
			t.Fatalf("result mismatch at %d: %s vs %s", i, gotObjs[i].Name, wantObjs[i].Name)
		}
	}
}

func TestFormatObject(t *testing.T) {
	d := Fig1Dataset()
	out := FormatObject(d.Schema, d.Objects[0])
	for _, want := range []string{"Global Ground", "isDark", "Madagascar", "Chocolate"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatObject missing %q:\n%s", want, out)
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	d := Fig1Dataset()
	// Break arity.
	d.Objects[0].Tuples[0] = d.Objects[0].Tuples[0][:2]
	if err := d.Validate(); err == nil {
		t.Error("short tuple accepted")
	}
	d = Fig1Dataset()
	// Break kind.
	d.Objects[0].Tuples[0][0] = S("not-a-bool")
	if err := d.Validate(); err == nil {
		t.Error("wrong kind accepted")
	}
	bad := Schema{Object: "O", Tuple: "T", Attrs: []Attr{{Name: "a", Kind: Bool}, {Name: "a", Kind: Bool}}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate attribute accepted")
	}
	empty := Schema{Object: "O", Tuple: "T", Attrs: []Attr{{Name: "", Kind: Bool}}}
	if err := empty.Validate(); err == nil {
		t.Error("empty attribute name accepted")
	}
}

func TestValueAccessors(t *testing.T) {
	if S("x").Str() != "x" || S("x").Kind() != String {
		t.Error("S broken")
	}
	if !B(true).Bool() || B(true).Kind() != Bool {
		t.Error("B broken")
	}
	if N(2.5).Num() != 2.5 || N(2.5).Kind() != Number {
		t.Error("N broken")
	}
	if B(true).Str() != "" || S("x").Num() != 0 || N(1).Bool() {
		t.Error("cross-kind accessors should zero")
	}
	if S("x").String() != "x" || B(false).String() != "false" || N(3).String() != "3" {
		t.Errorf("String renderings: %q %q %q", S("x"), B(false), N(3))
	}
}

func TestRandomChocolates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := RandomChocolates(rng, 50, 8)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Objects) != 50 {
		t.Fatalf("boxes = %d", len(d.Objects))
	}
	for _, o := range d.Objects {
		if len(o.Tuples) < 1 || len(o.Tuples) > 8 {
			t.Fatalf("box %s has %d chocolates", o.Name, len(o.Tuples))
		}
	}
}
