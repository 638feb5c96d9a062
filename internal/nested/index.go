package nested

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// Index precomputes the Boolean abstraction of every object of a
// dataset, so that executing queries and answering membership
// questions with real tuples become pure Boolean-domain operations:
// proposition evaluation happens once per tuple at build time instead
// of once per query. Interactive sessions execute many candidate
// queries over the same store — the learner's intermediate
// hypotheses, the verifier's probes, the final query — which is
// exactly the access pattern the index serves.
type Index struct {
	ps        Propositions
	dataset   Dataset
	abstracts []boolean.Set
	// byClass maps each Boolean class to one concrete representative
	// tuple, for real-instance question synthesis (§5).
	byClass map[boolean.Tuple]Tuple
}

// NewIndex abstracts every tuple of the dataset once. It validates
// the dataset first.
func NewIndex(ps Propositions, d Dataset) (*Index, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		ps:        ps,
		dataset:   d,
		abstracts: make([]boolean.Set, len(d.Objects)),
		byClass:   map[boolean.Tuple]Tuple{},
	}
	for i, o := range d.Objects {
		tuples := make([]boolean.Tuple, 0, len(o.Tuples))
		for _, t := range o.Tuples {
			bt := ps.Abstract(t)
			tuples = append(tuples, bt)
			if _, ok := ix.byClass[bt]; !ok {
				ix.byClass[bt] = t
			}
		}
		ix.abstracts[i] = boolean.NewSet(tuples...)
	}
	return ix, nil
}

// Execute returns the objects classified as answers, evaluating the
// query over the precomputed abstractions only.
func (ix *Index) Execute(q query.Query) ([]Object, error) {
	if q.N() != len(ix.ps.Props) {
		return nil, fmt.Errorf("nested: query over %d variables, index has %d propositions", q.N(), len(ix.ps.Props))
	}
	var out []Object
	for i, s := range ix.abstracts {
		if q.Eval(s) {
			out = append(out, ix.dataset.Objects[i])
		}
	}
	return out, nil
}

// Select builds a data object for a Boolean membership question using
// the indexed representative of each class where available (§5:
// selecting instances from a rich database beats synthesizing hybrids),
// falling back to synthesis for the classes the dataset lacks.
func (ix *Index) Select(name string, q boolean.Set) (Object, error) {
	o := Object{Name: name}
	for _, bt := range q.Tuples() {
		if t, ok := ix.byClass[bt]; ok {
			o.Tuples = append(o.Tuples, t)
			continue
		}
		t, err := ix.ps.Concretize(bt)
		if err != nil {
			return Object{}, err
		}
		o.Tuples = append(o.Tuples, t)
	}
	return o, nil
}
