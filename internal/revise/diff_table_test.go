package revise

import (
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// TestDiffTable pins Diff's behavior at the extremes: equal queries
// (and syntactic variants of the same query) diff to nothing, while
// disjoint queries diff to a full rewrite — every expression of one
// side removed, every expression of the other added.
func TestDiffTable(t *testing.T) {
	u := boolean.MustUniverse(6)
	parse := func(s string) query.Query {
		q, err := query.Parse(u, s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return q
	}
	cases := []struct {
		name         string
		from, to     string
		wantRemoved  int
		wantAdded    int
		wantSameness string // Explain output for the no-edit cases
	}{
		{
			name: "identical queries",
			from: "Ax1 -> x2 Ex3", to: "Ax1 -> x2 Ex3",
			wantSameness: "(semantically identical)",
		},
		{
			name: "reordered expressions",
			from: "Ex3 Ax1 -> x2", to: "Ax1 -> x2 Ex3",
			wantSameness: "(semantically identical)",
		},
		{
			name: "both empty",
			from: "", to: "",
			wantSameness: "(semantically identical)",
		},
		{
			// Diff runs on normalized queries, where each Horn rule
			// also carries its entailed existential conjunct — so one
			// rule contributes two edits.
			name: "disjoint single rules",
			from: "Ax1 -> x2", to: "Ax3 -> x4",
			wantRemoved: 2, wantAdded: 2,
		},
		{
			name: "disjoint multi-rule queries",
			from: "Ax1 -> x2 Ax3 -> x4", to: "Ax5 -> x6",
			wantRemoved: 4, wantAdded: 2,
		},
		{
			name: "empty to full",
			from: "", to: "Ax1 -> x2 Ax3 -> x4",
			wantRemoved: 0, wantAdded: 4,
		},
		{
			name: "full to empty",
			from: "Ax1 -> x2 Ax3 -> x4", to: "",
			wantRemoved: 4, wantAdded: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			from, to := parse(tc.from), parse(tc.to)
			edits := Diff(from, to)
			var removed, added int
			for _, e := range edits {
				if e.Added {
					added++
				} else {
					removed++
				}
			}
			if tc.wantSameness != "" {
				if len(edits) != 0 {
					t.Fatalf("Diff(%q, %q) = %v, want no edits", tc.from, tc.to, edits)
				}
				if got := Explain(from, to); got != tc.wantSameness {
					t.Fatalf("Explain = %q, want %q", got, tc.wantSameness)
				}
				if !from.Equivalent(to) {
					t.Fatalf("no edits between inequivalent queries")
				}
				return
			}
			if removed != tc.wantRemoved || added != tc.wantAdded {
				t.Fatalf("Diff(%q, %q): %d removed, %d added; want %d/%d (edits %v)",
					tc.from, tc.to, removed, added, tc.wantRemoved, tc.wantAdded, edits)
			}
			if from.Equivalent(to) {
				t.Fatalf("edits between equivalent queries %q and %q", tc.from, tc.to)
			}
		})
	}
}
