package learn

import (
	"fmt"
	"strconv"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// qhorn1Learner learns a qhorn-1 query over u exactly, using
// O(n lg n) membership questions against an oracle backed by a target
// query in the class (Theorem 3.1): O(n) head questions, O(n lg n)
// universal-dependence questions (Lemma 3.2) and O(n lg n) existential
// questions (Lemma 3.3). If the oracle is not consistent with any
// qhorn-1 query, the result is unspecified (exact learning has no
// error signal; use verify.Run to check a result). It is the default
// configuration of Run.
type qhorn1Learner struct {
	u     boolean.Universe
	o     oracle.Oracle
	stats run.Stats
	phase *int // current phase counter
	// serial switches the variable searches from binary search to
	// the one-question-per-variable baseline of §3.1.2
	// (run.WithNaiveSearch).
	serial bool
	// batch surfaces independent question sets as oracle.AskAll
	// batches (run.WithBatch): the n head questions, each FindAll
	// level, and the co-head separation questions. The questions —
	// and the per-phase counts — are identical to the serial run;
	// only the asking overlaps in time.
	batch bool
	// in carries the observability hooks (run.WithInstrumentation);
	// its zero value is silent.
	in instr
}

// elimQuestion describes the membership question behind an
// elimination predicate of Algorithms 2–3: how to build the question
// for a candidate set, how to annotate it, and which oracle answer
// eliminates the set. Factoring the question out of the closure lets
// the batch mode issue whole FindAll levels as one oracle batch with
// unchanged annotations and accounting.
type elimQuestion struct {
	phase          string
	build          func(d []int) boolean.Set
	purpose        func(d []int) string
	eliminatedWhen bool
}

// eliminate adapts e to the serial predicate findOne/findAll expect.
func (l *qhorn1Learner) eliminate(e elimQuestion) func([]int) bool {
	return func(d []int) bool {
		notef(&l.in, e.phase, e.purpose, d)
		return l.ask(e.build(d)) == e.eliminatedWhen
	}
}

// eliminateBatch adapts e to the level-batch predicate of
// findAllBatched.
func (l *qhorn1Learner) eliminateBatch(e elimQuestion) func([][]int) []bool {
	return func(ds [][]int) []bool {
		qs := make([]boolean.Set, len(ds))
		for i, d := range ds {
			qs[i] = e.build(d)
		}
		answers := askBatch(l.o, &l.in, l.phase, qs, e.phase, func(i int) string { return e.purpose(ds[i]) })
		for i := range answers {
			answers[i] = answers[i] == e.eliminatedWhen
		}
		return answers
	}
}

// varNames renders a variable list as "x1,x3".
func varNames(vars []int) string {
	b := make([]byte, 0, 4*len(vars))
	for i, v := range vars {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(v+1), 10)
	}
	return string(b)
}

// find dispatches to binary or serial search for one target variable,
// under a "find" span (Algorithm 2). The binary search is adaptive —
// each question depends on the previous answer — so it stays serial
// even in batch mode.
func (l *qhorn1Learner) find(vars []int, e elimQuestion) (int, bool) {
	defer l.in.begin("find")()
	if l.serial {
		return serialFindOne(vars, l.eliminate(e))
	}
	return findOne(vars, l.eliminate(e))
}

// findEvery dispatches to binary, serial, or level-batched search for
// all targets, under a "findall" span (Algorithm 3).
func (l *qhorn1Learner) findEvery(vars []int, e elimQuestion) []int {
	defer l.in.begin("findall")()
	switch {
	case l.serial:
		return serialFindAll(vars, l.eliminate(e))
	case l.batch:
		return findAllBatched(vars, l.eliminateBatch(e))
	default:
		return findAll(vars, l.eliminate(e))
	}
}

func (l *qhorn1Learner) ask(s boolean.Set) bool {
	*l.phase++
	a := l.o.Ask(s)
	l.in.observe(s, a)
	return a
}

func (l *qhorn1Learner) learn() (query.Query, run.Stats) {
	n := l.u.N()
	var exprs []query.Expr
	name := "learn/qhorn1"
	if l.serial {
		name = "learn/qhorn1-naive"
	}
	defer l.in.start(name, obs.Af("n", "%d", n))()

	// Phase 1 (§3.1.1): classify every variable as universal head or
	// existential with one question each.
	l.phase = &l.stats.HeadQuestions
	endPhase := l.in.begin("heads")
	headSet := classifyHeads(l.u, l.o, &l.in, l.phase, l.batch)
	uniHeads, existential := headSet.Vars(), l.u.Complement(headSet).Vars()
	endPhase()

	// Phase 2 (§3.1.2, Algorithm 1): learn the body of each universal
	// head by binary search, reusing known bodies.
	l.phase = &l.stats.BodyQuestions
	endPhase = l.in.begin("bodies")
	var bodies []boolean.Tuple // disjoint learned bodies
	for _, h := range uniHeads {
		b := l.findBodyFor(h, bodies, existential)
		if b.IsEmpty() {
			exprs = append(exprs, query.BodylessUniversal(h))
			continue
		}
		exprs = append(exprs, query.UniversalHorn(b, h))
		bodies = appendBody(bodies, b)
	}
	endPhase()

	// Phase 3 (§3.1.3, Algorithm 4): learn existential Horn
	// expressions among the remaining existential variables.
	l.phase = &l.stats.ExistentialQuestions
	endPhase = l.in.begin("existential")
	defer endPhase()
	var bodyUnion boolean.Tuple
	for _, b := range bodies {
		bodyUnion = bodyUnion.Union(b)
	}
	pending := make([]int, 0, len(existential))
	for _, e := range existential {
		if !bodyUnion.Has(e) {
			pending = append(pending, e)
		}
	}
	for len(pending) > 0 {
		e := pending[0]
		pending = pending[1:]
		// Does e depend on a variable of a known body? Then e is an
		// existential head of that body.
		eT := boolean.FromVars(e)
		knownVars := tupleVars(bodies)
		knownElim := elimQuestion{
			phase: "existential",
			build: func(d []int) boolean.Set {
				return ExistentialIndependenceQuestion(l.u, eT, boolean.FromVars(d...))
			},
			purpose: func(d []int) string {
				return fmt.Sprintf("does x%d depend on one of the known body variables %s?", e+1, varNames(d))
			},
			eliminatedWhen: true,
		}
		if b, found := l.find(knownVars, knownElim); found {
			for _, known := range bodies {
				if known.Has(b) {
					exprs = append(exprs, query.ExistentialHorn(known, e))
					break
				}
			}
			continue
		}
		// Find all variables D that e depends on among the pending
		// existential variables.
		dVars := l.findEvery(pending, elimQuestion{
			phase: "existential",
			build: func(d []int) boolean.Set {
				return ExistentialIndependenceQuestion(l.u, eT, boolean.FromVars(d...))
			},
			purpose: func(d []int) string {
				return fmt.Sprintf("does x%d depend on any of %s?", e+1, varNames(d))
			},
			eliminatedWhen: true,
		})
		d := boolean.FromVars(dVars...)
		if d.IsEmpty() {
			// e participates in no Horn expression with other
			// variables: the singleton ∃e.
			exprs = append(exprs, query.ExistentialHorn(0, e))
			continue
		}
		// Decide the roles within D (Lemma 3.3 / Algorithm 5).
		h1, twoHeads := l.getHead(dVars)
		if !twoHeads {
			// At most one head variable in D: we may take e as the
			// head and all of D as its body; any other assignment is
			// semantically identical (the conjunction is D ∪ {e}).
			exprs = append(exprs, query.ExistentialHorn(d, e))
			bodies = appendBody(bodies, d)
			pending = removeVars(pending, d)
			continue
		}
		// h1 is one head; separate the remaining heads from the body
		// variables with one independence question each. The questions
		// are mutually independent, so batch mode issues them at once.
		heads := boolean.FromVars(h1)
		h1T := boolean.FromVars(h1)
		cand := make([]int, 0, len(dVars))
		for _, dv := range dVars {
			if dv != h1 {
				cand = append(cand, dv)
			}
		}
		coHeadPurpose := func(i int) string {
			return fmt.Sprintf("are x%d and x%d independent co-heads?", h1+1, cand[i]+1)
		}
		if l.batch {
			qs := make([]boolean.Set, len(cand))
			for i, dv := range cand {
				qs[i] = ExistentialIndependenceQuestion(l.u, h1T, boolean.FromVars(dv))
			}
			answers := askBatch(l.o, &l.in, l.phase, qs, "existential", coHeadPurpose)
			for i, a := range answers {
				if a {
					heads = heads.With(cand[i])
				}
			}
		} else {
			for i, dv := range cand {
				notef(&l.in, "existential", coHeadPurpose, i)
				if l.ask(ExistentialIndependenceQuestion(l.u, h1T, boolean.FromVars(dv))) {
					heads = heads.With(dv)
				}
			}
		}
		bodyVars := d.Minus(heads).With(e)
		for _, h := range heads.Vars() {
			exprs = append(exprs, query.ExistentialHorn(bodyVars, h))
		}
		bodies = appendBody(bodies, bodyVars)
		pending = removeVars(pending, d)
	}

	q := query.Query{U: l.u, Exprs: exprs}
	return q, l.stats
}

// findBodyFor learns the body of universal head h (Algorithm 1):
// first a binary search within the union of known bodies — one shared
// variable identifies the whole body — then a full FindAll over the
// existential variables.
func (l *qhorn1Learner) findBodyFor(h int, bodies []boolean.Tuple, existential []int) boolean.Tuple {
	eliminate := elimQuestion{
		phase: "bodies",
		build: func(d []int) boolean.Set {
			return UniversalDependenceQuestion(l.u, h, boolean.FromVars(d...))
		},
		purpose: func(d []int) string {
			return fmt.Sprintf("does the body of x%d include a variable of %s?", h+1, varNames(d))
		},
		eliminatedWhen: false,
	}
	knownVars := tupleVars(bodies)
	if b, found := l.find(knownVars, eliminate); found {
		for _, known := range bodies {
			if known.Has(b) {
				return known
			}
		}
	}
	// h's body is disjoint from every known body: search the
	// remaining existential variables.
	var known boolean.Tuple
	for _, b := range bodies {
		known = known.Union(b)
	}
	rest := make([]int, 0, len(existential))
	for _, e := range existential {
		if !known.Has(e) {
			rest = append(rest, e)
		}
	}
	return boolean.FromVars(l.findEvery(rest, eliminate)...)
}

// getHead locates one existential head variable within the dependent
// set D using independence-matrix questions (Lemma 3.3). It returns
// ok=false when D contains at most one head variable, in which case
// the matrix question on D is a non-answer. The implementation is an
// invariant-based binary search equivalent to Algorithm 5: tester T
// holds at most one head, candidate C satisfies #heads(T ∪ C) ≥ 2,
// and each question halves C.
func (l *qhorn1Learner) getHead(dVars []int) (int, bool) {
	defer l.in.begin("gethead")()
	matrix := func(vars []int) bool {
		notef(&l.in, "existential", matrixPurpose, vars)
		return l.ask(MatrixQuestion(l.u, boolean.FromVars(vars...)))
	}
	if !matrix(dVars) {
		return 0, false
	}
	var tester []int
	cand := dVars
	for len(cand) > 1 {
		half := cand[:len(cand)/2]
		rest := cand[len(cand)/2:]
		if matrix(append(append([]int{}, tester...), half...)) {
			cand = half
		} else {
			tester = append(tester, half...)
			cand = rest
		}
	}
	return cand[0], true
}

// matrixPurpose annotates the independence-matrix question on vars.
func matrixPurpose(vars []int) string {
	return fmt.Sprintf("do at least two head variables lie in %s?", varNames(vars))
}

// appendBody adds a newly learned body to the list unless an equal
// body is already present.
func appendBody(bodies []boolean.Tuple, b boolean.Tuple) []boolean.Tuple {
	for _, known := range bodies {
		if known == b {
			return bodies
		}
	}
	return append(bodies, b)
}

// tupleVars flattens a list of disjoint variable sets into a sorted
// variable slice.
func tupleVars(bodies []boolean.Tuple) []int {
	var union boolean.Tuple
	for _, b := range bodies {
		union = union.Union(b)
	}
	return union.Vars()
}

// removeVars drops the variables of d from the pending list.
func removeVars(pending []int, d boolean.Tuple) []int {
	out := pending[:0]
	for _, v := range pending {
		if !d.Has(v) {
			out = append(out, v)
		}
	}
	return out
}
