package nested

import (
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

func TestSelectivityFig1(t *testing.T) {
	ps := ChocolatePropositions()
	d := Fig1Dataset()
	p := Selectivity(ps, d)
	if p.TotalObjects != 2 || p.TotalTuples != 6 {
		t.Fatalf("totals: %d objects, %d tuples", p.TotalObjects, p.TotalTuples)
	}
	u := ps.Universe()
	// Class 110 (dark, filled, not Madagascar) occurs three times:
	// Germany in box 1, Belgium in box 2... Germany (dark, filled) and
	// the dark filled Belgian.
	c110 := p.Count(u.MustParse("110"))
	if c110.Tuples != 2 || c110.Objects != 2 {
		t.Errorf("class 110: %+v", c110)
	}
	// 111 occurs once (the Madagascar chocolate).
	c111 := p.Count(u.MustParse("111"))
	if c111.Tuples != 1 || c111.Objects != 1 {
		t.Errorf("class 111: %+v", c111)
	}
	// Absent class.
	if got := p.Count(u.MustParse("001")); got.Tuples != 0 {
		t.Errorf("absent class counted: %+v", got)
	}
	// Histogram is sorted by frequency.
	for i := 1; i < len(p.Classes); i++ {
		if p.Classes[i-1].Tuples < p.Classes[i].Tuples {
			t.Fatal("histogram not sorted")
		}
	}
}

func TestProposePropositions(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	d := RandomChocolates(rng, 80, 5)
	ps, err := ProposePropositions(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Props) == 0 {
		t.Fatal("no propositions proposed")
	}
	if got := ps.Interferences(); len(got) != 0 {
		t.Fatalf("proposals interfere: %v", got)
	}
	// One per varying attribute; the chocolate schema has 4 bools +
	// origin.
	if len(ps.Props) != 5 {
		t.Fatalf("proposed %d propositions: %v", len(ps.Props), ps.Props)
	}
	// Every proposal must actually vary across the data.
	for i := range ps.Props {
		seenTrue, seenFalse := false, false
		for _, o := range d.Objects {
			for _, tup := range o.Tuples {
				if ps.Props[i].Holds(ps.Schema, tup) {
					seenTrue = true
				} else {
					seenFalse = true
				}
			}
		}
		if !seenTrue || !seenFalse {
			t.Errorf("proposition %s is constant on the data", ps.Props[i])
		}
	}
	// A learning session over the proposed propositions works end to
	// end.
	u := ps.Universe()
	intended := query.MustParse(u, "∀x1 ∃x2")
	user := oracle.Func(func(s boolean.Set) bool {
		obj, err := ps.ConcretizeQuestion("q", s)
		if err != nil {
			t.Fatalf("concretize: %v", err)
		}
		return intended.Eval(ps.AbstractObject(obj))
	})
	learned, _ := learn.Run(u, user, run.WithAlgorithm(run.RolePreserving))
	if !learned.Equivalent(intended) {
		t.Fatalf("learned %s over proposed propositions", learned)
	}
}

func TestProposePropositionsSkipsConstants(t *testing.T) {
	s := Schema{Object: "O", Tuple: "T", Attrs: []Attr{
		{Name: "flag", Kind: Bool},
		{Name: "always", Kind: String},
		{Name: "price", Kind: Number},
	}}
	d := Dataset{Schema: s, Objects: []Object{
		{Name: "a", Tuples: []Tuple{
			{B(true), S("same"), N(1)},
			{B(false), S("same"), N(5)},
		}},
	}}
	ps, err := ProposePropositions(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Props) != 2 {
		t.Fatalf("proposed %v, want flag and price only", ps.Props)
	}
	for _, p := range ps.Props {
		if p.Attr == "always" {
			t.Error("constant attribute proposed")
		}
	}
	// The numeric proposal splits at the median.
	probe := Tuple{B(true), S("same"), N(3)}
	for _, p := range ps.Props {
		if p.Attr == "price" && !p.Holds(s, probe) {
			t.Errorf("price>1 should hold for 3: %s", p)
		}
	}
	// Cap respected.
	capped, err := ProposePropositions(d, 1)
	if err != nil || len(capped.Props) != 1 {
		t.Fatalf("cap ignored: %v %v", capped.Props, err)
	}
	// Invalid dataset rejected.
	bad := Dataset{Schema: s, Objects: []Object{{Name: "x", Tuples: []Tuple{{B(true)}}}}}
	if _, err := ProposePropositions(bad, 0); err == nil {
		t.Error("invalid dataset accepted")
	}
}
