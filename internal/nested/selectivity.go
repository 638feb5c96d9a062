package nested

import (
	"sort"

	"qhorn/internal/boolean"
)

// ClassCount reports how often one Boolean class (a distinct
// true/false combination of the propositions) occurs in a dataset.
type ClassCount struct {
	// Class is the Boolean tuple of the class.
	Class boolean.Tuple
	// Tuples is the number of embedded tuples in the class.
	Tuples int
	// Objects is the number of objects containing at least one tuple
	// of the class.
	Objects int
}

// Profile is the Boolean-class histogram of a dataset under a
// proposition set. It drives the §5 strategy of answering membership
// questions with real instances: a question is fully coverable only
// if every Boolean class it mentions occurs in the data.
type Profile struct {
	// Classes holds the non-empty classes, most frequent first.
	Classes []ClassCount
	// TotalTuples and TotalObjects size the dataset.
	TotalTuples  int
	TotalObjects int
}

// Selectivity profiles the dataset: one histogram bucket per Boolean
// class that occurs.
func Selectivity(ps Propositions, d Dataset) Profile {
	perClassTuples := map[boolean.Tuple]int{}
	perClassObjects := map[boolean.Tuple]int{}
	var p Profile
	for _, o := range d.Objects {
		p.TotalObjects++
		seen := map[boolean.Tuple]bool{}
		for _, t := range o.Tuples {
			p.TotalTuples++
			bt := ps.Abstract(t)
			perClassTuples[bt]++
			if !seen[bt] {
				seen[bt] = true
				perClassObjects[bt]++
			}
		}
	}
	for class, n := range perClassTuples {
		p.Classes = append(p.Classes, ClassCount{Class: class, Tuples: n, Objects: perClassObjects[class]})
	}
	sort.Slice(p.Classes, func(i, j int) bool {
		if p.Classes[i].Tuples != p.Classes[j].Tuples {
			return p.Classes[i].Tuples > p.Classes[j].Tuples
		}
		return p.Classes[i].Class < p.Classes[j].Class
	})
	return p
}

// Count returns the histogram bucket for a class (zero if absent).
func (p Profile) Count(class boolean.Tuple) ClassCount {
	for _, cc := range p.Classes {
		if cc.Class == class {
			return cc
		}
	}
	return ClassCount{}
}
