// Package revise implements query revision, the direction §6 of the
// qhorn paper sketches as future work: "Given a query which is close
// to the user's intended query, our goal is to determine the intended
// query through few membership questions."
//
// The algorithm combines the paper's two machines. It first runs the
// O(k)-question verification set of §4 against the user (free when
// the query is already right). Each disagreement carries structured
// attribution — which universal head or which conjunction it probes —
// so the repair step re-runs only the affected sub-learners of §3.2:
// the per-head body search for implicated heads, and the existential
// lattice descent when conjunctions disagree. When the disagreements
// implicate the head set itself (A4, or an N2 the user accepts), the
// scope widens to a full head re-classification. A final verification
// pass confirms the result; if anything still disagrees — possible
// only when the attribution under-approximated the damage — the
// algorithm escalates to the full learner, so Revise is never worse
// than learning from scratch plus O(k) verification questions, and is
// far cheaper when the edit distance is small.
//
// The paper also proposes the natural distance measure — the
// symmetric difference between the queries' distinguishing tuples on
// the Boolean lattice — which Distance implements; the E13 experiment
// plots questions against it.
package revise

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/session"
	"qhorn/internal/verify"
)

// Result reports a revision run.
type Result struct {
	// Revised is the corrected query, semantically equivalent to the
	// user's intended query.
	Revised query.Query
	// VerificationQuestions counts the questions spent on the
	// verification passes.
	VerificationQuestions int
	// RepairQuestions counts the questions spent re-learning parts.
	RepairQuestions int
	// Escalated reports whether the targeted repair was insufficient
	// and the full learner ran.
	Escalated bool
}

// Questions returns the total number of membership questions asked.
func (r Result) Questions() int { return r.VerificationQuestions + r.RepairQuestions }

// Revise corrects the given role-preserving query to match the user's
// intent. Against an oracle backed by a role-preserving query, the
// result is exact. Question cost is O(k) when the query is already
// correct, proportional to the damaged region for local edits, and at
// worst one full learning run plus two verification passes.
func Revise(given query.Query, o oracle.Oracle) (Result, error) {
	if !given.IsRolePreserving() {
		return Result{}, fmt.Errorf("revise: query %s is not role-preserving", given)
	}
	res := Result{}
	u := given.U

	// The passes run over an interaction history (§5), so a question
	// repeated across passes is counted once and never re-asked of the
	// user. The counter deliberately sits below the history — it counts
	// what actually reaches the user, not what the passes ask — which
	// is the inverse of the engine's run-facing Counter, so it is not a
	// run.WithCounter.
	counter := oracle.Count(o, nil)
	hist := session.New(counter)

	current := given.Normalize()
	vres, err := runVerification(current, hist)
	if err != nil {
		return Result{}, err
	}
	res.VerificationQuestions = counter.Questions
	if vres.Correct {
		res.Revised = current
		return res, nil
	}

	// Targeted repair.
	before := counter.Questions
	current = repair(u, hist, current, vres)
	res.RepairQuestions += counter.Questions - before

	// Confirm; escalate to the full learner if anything still
	// disagrees.
	before = counter.Questions
	vres, err = runVerification(current, hist)
	if err != nil {
		return Result{}, err
	}
	res.VerificationQuestions += counter.Questions - before
	if !vres.Correct {
		res.Escalated = true
		before = counter.Questions
		current, _ = learn.Run(u, hist, run.WithAlgorithm(run.RolePreserving))
		res.RepairQuestions += counter.Questions - before
	}
	res.Revised = current
	return res, nil
}

// runVerification builds and runs the verification set of q.
func runVerification(q query.Query, o oracle.Oracle) (verify.Result, error) {
	vs, err := verify.Build(q)
	if err != nil {
		return verify.Result{}, err
	}
	return vs.RunWith(o), nil
}

// repair rebuilds the parts of current implicated by the verification
// disagreements.
func repair(u boolean.Universe, o oracle.Oracle, current query.Query, vres verify.Result) query.Query {
	// Classify the damage.
	headsSuspect := false        // the head set itself may be wrong
	conjSuspect := false         // the conjunctions may be wrong
	implicated := map[int]bool{} // heads whose bodies may be wrong
	for _, d := range vres.Disagreements {
		switch d.Question.Kind {
		case verify.A4:
			headsSuspect = true
		case verify.N2:
			// The user accepts a universal distinguishing tuple:
			// either the body is a strict superset in her query or h
			// is not a head at all.
			headsSuspect = true
			implicated[d.Question.Head] = true
		case verify.A2, verify.A3:
			implicated[d.Question.Head] = true
		case verify.A1, verify.N1:
			conjSuspect = true
		}
	}

	headSet := current.UniversalHeads()
	if headsSuspect {
		newHeads := learn.ClassifyHeads(u, o)
		if newHeads != headSet {
			// Heads changed: every body may be stale (the lattice of
			// every head pins the other heads).
			headSet = newHeads
			implicated = map[int]bool{}
			for _, h := range headSet.Vars() {
				implicated[h] = true
			}
			conjSuspect = true
		}
	}

	// Rebuild universal expressions: keep bodies of untouched heads,
	// re-learn implicated ones.
	var universals []query.Expr
	for _, h := range headSet.Vars() {
		if !implicated[h] {
			for _, e := range current.DominantUniversals() {
				if e.Head == h {
					universals = append(universals, e)
				}
			}
			continue
		}
		conjSuspect = true // closures depend on the universal part
		for _, b := range learn.LearnBodies(u, o, h, headSet) {
			if b.IsEmpty() {
				universals = append(universals, query.BodylessUniversal(h))
			} else {
				universals = append(universals, query.UniversalHorn(b, h))
			}
		}
	}

	// Rebuild conjunctions if implicated, else keep them.
	var exprs []query.Expr
	exprs = append(exprs, universals...)
	if conjSuspect {
		for _, c := range learn.LearnConjunctions(u, o, universals) {
			if !c.IsEmpty() {
				exprs = append(exprs, query.Conjunction(c))
			}
		}
	} else {
		for _, c := range current.DominantConjunctions() {
			exprs = append(exprs, query.Conjunction(c))
		}
	}
	return (query.Query{U: u, Exprs: exprs}).Normalize()
}

// Distance is the paper's suggested closeness measure between two
// role-preserving queries: the size of the symmetric difference
// between their sets of universal and existential distinguishing
// tuples (§6). Equivalent queries are at distance 0.
func Distance(a, b query.Query) int {
	d := 0
	d += symDiff(universalTuples(a), universalTuples(b))
	d += symDiff(conjTuples(a), conjTuples(b))
	return d
}

// headTuple keys a universal distinguishing tuple by the head it
// belongs to: two bodyless heads share the tuple but distinguish
// different expressions.
type headTuple struct {
	head  int
	tuple boolean.Tuple
}

func universalTuples(q query.Query) map[headTuple]bool {
	nf := q.Normalize()
	out := map[headTuple]bool{}
	for _, e := range nf.DominantUniversals() {
		out[headTuple{e.Head, nf.UniversalDistinguishingTuple(e)}] = true
	}
	return out
}

func conjTuples(q query.Query) map[headTuple]bool {
	nf := q.Normalize()
	out := map[headTuple]bool{}
	for _, c := range nf.DominantConjunctions() {
		out[headTuple{-1, c}] = true
	}
	return out
}

func symDiff(a, b map[headTuple]bool) int {
	d := 0
	for t := range a {
		if !b[t] {
			d++
		}
	}
	for t := range b {
		if !a[t] {
			d++
		}
	}
	return d
}
