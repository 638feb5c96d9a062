package learn

import (
	"fmt"
	"slices"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// rpLearner learns a role-preserving qhorn query over u exactly
// (§3.2), returning the query in normal form: O(n) head questions,
// O(n^(θ+1)) universal body-search questions (Theorem 3.5), counted as
// run.Stats.BodyQuestions, and O(k·n·lg n) existential lattice
// questions (Theorem 3.8). Against an oracle backed by a target query
// in the class, the result is semantically equivalent to the target.
// Run builds it under run.WithAlgorithm(run.RolePreserving).
type rpLearner struct {
	u         boolean.Universe
	o         oracle.Oracle
	stats     run.Stats
	phase     *int
	ablations Ablations
	// batch surfaces independent question sets as oracle.AskAll
	// batches (run.WithBatch): the n head questions as one
	// batch, and the per-head lattice searches of §3.2.1 — which
	// depend only on the head set, not on each other — stepped in
	// lockstep so each round's questions form one batch. Questions
	// and per-phase counts are identical to the serial run.
	batch bool
	// in carries the observability hooks (run.WithInstrumentation);
	// its zero value is silent.
	in instr
	// Scratch reused across calls, held in order so that every question
	// is a merge (mergeUnion): findConjunctions' pending tuples,
	// ascending with repeats; the question; pruneTuples' result in
	// discovery order (valid until the next call) and ascending; and
	// Algorithm 8's candidate pool, descending.
	pending, buf, kept, keptAsc, pool []boolean.Tuple
	// visited holds the search roots every bodySearch of the learn
	// has asked about. A root for head h holds every other head and
	// not h, so the tuple alone identifies its head too.
	visited map[boolean.Tuple]bool
}

func (l *rpLearner) ask(s boolean.Set) bool {
	*l.phase++
	a := l.o.Ask(s)
	l.in.observe(s, a)
	return a
}

func (l *rpLearner) learn() (query.Query, run.Stats) {
	defer l.in.start("learn/rp", obs.Af("n", "%d", l.u.N()))()

	// Phase 1 (§3.2.1): determine the universal head variables, one
	// question per variable, exactly as in §3.1.1.
	l.phase = &l.stats.HeadQuestions
	endPhase := l.in.begin("heads")
	headSet := classifyHeads(l.u, l.o, &l.in, l.phase, l.batch)
	endPhase()

	// Phase 2 (§3.2.1): for each head, search the Boolean lattice on
	// the non-head variables (other heads pinned true, h pinned
	// false) for the distinguishing tuples of h's dominant bodies.
	// The per-head searches depend only on the head set, never on one
	// another, so batch mode steps them in lockstep rounds.
	l.phase = &l.stats.BodyQuestions
	endPhase = l.in.begin("bodies")
	heads := headSet.Vars()
	bodiesByHead := make([][]boolean.Tuple, len(heads))
	if l.batch && len(heads) > 1 {
		l.findBodiesBatched(heads, headSet, bodiesByHead)
	} else {
		for i, h := range heads {
			bodiesByHead[i] = l.findBodies(h, headSet)
		}
	}
	var universals []query.Expr
	for i, h := range heads {
		for _, b := range bodiesByHead[i] {
			if b.IsEmpty() {
				universals = append(universals, query.BodylessUniversal(h))
			} else {
				universals = append(universals, query.UniversalHorn(b, h))
			}
		}
	}
	endPhase()

	// Phase 3 (§3.2.2): search the full Boolean lattice for the
	// distinguishing tuples of the dominant existential conjunctions.
	l.phase = &l.stats.ExistentialQuestions
	endPhase = l.in.begin("existential")
	conjs := l.findConjunctions(universals)
	endPhase()

	exprs := append([]query.Expr{}, universals...)
	for _, c := range conjs {
		if !c.IsEmpty() {
			exprs = append(exprs, query.Conjunction(c))
		}
	}
	return (query.Query{U: l.u, Exprs: exprs}).Normalize(), l.stats
}

// classifyHeads asks one head-test question per variable of u
// (§3.1.1, §3.2.1), counting each into counter, and returns the set of
// universal head variables. The questions are mutually independent, so
// batch mode issues all n at once.
func classifyHeads(u boolean.Universe, o oracle.Oracle, in *instr, counter *int, batch bool) boolean.Tuple {
	var headSet boolean.Tuple
	if batch {
		qs := make([]boolean.Set, u.N())
		for x := range qs {
			qs[x] = HeadTestQuestion(u, x)
		}
		for x, a := range askBatch(o, in, counter, qs, "heads", headPurpose) {
			if !a {
				headSet = headSet.With(x)
			}
		}
		return headSet
	}
	for x := 0; x < u.N(); x++ {
		notef(in, "heads", headPurpose, x)
		q := HeadTestQuestion(u, x)
		*counter++
		a := o.Ask(q)
		in.observe(q, a)
		if !a {
			headSet = headSet.With(x)
		}
	}
	return headSet
}

// headPurpose annotates the head-test question of variable x.
func headPurpose(x int) string {
	return fmt.Sprintf("is x%d a universal head variable?", x+1)
}

// conjunctionPurpose annotates the descent question at lattice point t.
func conjunctionPurpose(t boolean.Tuple) string {
	return fmt.Sprintf("can the conjunction over %s be weakened to its children?", varNames(t.Vars()))
}

// ClassifyHeads determines the universal head variables of the
// oracle's hidden role-preserving query with exactly n questions
// (§3.1.1/§3.2.1). Exposed for the revision algorithm, which repairs
// a nearly-correct query phase by phase.
func ClassifyHeads(u boolean.Universe, o oracle.Oracle) boolean.Tuple {
	var c int
	return classifyHeads(u, o, &instr{}, &c, false)
}

// LearnBodies finds the dominant universal Horn bodies of head h in
// the oracle's hidden query, given the full head set (§3.2.1). A
// single empty body means ∀h. Exposed for the revision algorithm.
func LearnBodies(u boolean.Universe, o oracle.Oracle, h int, headSet boolean.Tuple) []boolean.Tuple {
	l := &rpLearner{u: u, o: o}
	var c int
	l.phase = &c
	return l.findBodies(h, headSet)
}

// LearnConjunctions finds the distinguishing tuples of the dominant
// existential conjunctions of the oracle's hidden query, given its
// universal Horn expressions (§3.2.2). Exposed for the revision
// algorithm.
func LearnConjunctions(u boolean.Universe, o oracle.Oracle, universals []query.Expr) []boolean.Tuple {
	l := &rpLearner{u: u, o: o}
	var c int
	l.phase = &c
	return l.findConjunctions(universals)
}

// findBodies returns the dominant bodies of universal head h,
// searching serially under a per-head "lattice-search" span.
func (l *rpLearner) findBodies(h int, headSet boolean.Tuple) []boolean.Tuple {
	defer l.in.begin("lattice-search", obs.Af("head", "x%d", h+1))()
	s := l.newBodySearch(h, headSet)
	for t, ok := s.next(); ok; t, ok = s.next() {
		notef(&l.in, "bodies", s.purpose, t)
		s.answer(!l.ask(s.question(t)))
	}
	return s.found
}

// findBodiesBatched steps the per-head lattice searches in lockstep:
// round r's batch holds the r-th question of every head still
// searching, in head order, answered as one oracle.AskAll batch. Each
// search receives exactly the answers it would receive running alone,
// so its questions — and the per-phase counts and step order — are
// those of the serial run. The per-head lattice-search spans are
// skipped in this mode: the searches overlap in time.
func (l *rpLearner) findBodiesBatched(heads []int, headSet boolean.Tuple, out [][]boolean.Tuple) {
	searches := make([]*bodySearch, len(heads))
	for i, h := range heads {
		searches[i] = l.newBodySearch(h, headSet)
	}
	var (
		asking []*bodySearch
		points []boolean.Tuple
		qs     []boolean.Set // no oracle retains a batch past AskAll
	)
	for {
		asking, points, qs = asking[:0], points[:0], qs[:0]
		for _, s := range searches {
			if t, ok := s.next(); ok {
				asking = append(asking, s)
				points = append(points, t)
				qs = append(qs, s.question(t))
			}
		}
		if len(qs) == 0 {
			break
		}
		answers := askBatch(l.o, &l.in, l.phase, qs, "bodies", func(j int) string { return asking[j].purpose(points[j]) })
		for j, s := range asking {
			s.answer(!answers[j])
		}
	}
	for i, s := range searches {
		out[i] = s.found
	}
}

// bodySearch is the resumable body search of §3.2.1 for one universal
// head h. The search starts from the top of the restricted lattice
// (Fig. 5), minimizes down to one body with Algorithm 6, then explores
// the sub-lattices rooted at tuples that exclude one variable from
// each known body, until no root uncovers a new body (Theorem 3.5).
//
// next returns the lattice point t the search asks about next — the
// question pairs the all-true tuple with t, a non-answer iff t
// contains a complete body for h — and answer resumes the search with
// that verdict. Once next reports ok=false, found holds h's dominant
// bodies; a single empty body means h is bodyless (∀h).
type bodySearch struct {
	in                     *instr
	h                      int
	all, free, pinned, top boolean.Tuple
	stage                  bodyStage
	found                  []boolean.Tuple
	visited                map[boolean.Tuple]bool // shared by the learn's searches (rpLearner.visited)
	queue                  []boolean.Tuple
	cur                    boolean.Tuple // the root, then the minimization point
	drop                   boolean.Tuple // Algorithm 6's variables still to try dropping, lowest first
}

type bodyStage int

const (
	stageBodyless bodyStage = iota // asking about the lattice bottom
	stageRoot                      // asking about search roots
	stageMinimize                  // Algorithm 6 on the current root
)

func (l *rpLearner) newBodySearch(h int, headSet boolean.Tuple) *bodySearch {
	all := l.u.All()
	free := all.Minus(headSet)
	pinned := headSet.Without(h) // other heads true, h false
	if l.visited == nil {
		l.visited = map[boolean.Tuple]bool{}
	}
	return &bodySearch{in: &l.in, h: h, all: all, free: free, pinned: pinned, top: free.Union(pinned), visited: l.visited}
}

// question is the lattice question about point t. The tuples go in
// ascending order: t never holds h, so t < s.all.
func (s *bodySearch) question(t boolean.Tuple) boolean.Set {
	return boolean.NewSet(t, s.all)
}

// purpose annotates the question about point t.
func (s *bodySearch) purpose(t boolean.Tuple) string {
	return fmt.Sprintf("does a complete body for x%d lie within %s?", s.h+1, varNames(t.Intersect(s.free).Vars()))
}

// next returns the lattice point of the search's next question, or
// ok=false once the search is over.
func (s *bodySearch) next() (boolean.Tuple, bool) {
	switch s.stage {
	case stageBodyless:
		// The bottom contains a body only if the body is empty.
		return s.pinned, true
	case stageMinimize:
		if !s.drop.IsEmpty() {
			return s.cur.Without(s.drop.Lowest()), true
		}
		// The surviving true free variables form a dominant body.
		s.stage = stageRoot
		if b := s.cur.Intersect(s.free); !containsTuple(s.found, b) {
			s.found = append(s.found, b)
			// Regenerate the search roots: one excluded variable from
			// each known body (§3.2.1's |B1|×…×|Bm| roots).
			roots := bodyRoots(s.queue[:0], s.top, s.found)
			s.queue = roots[:0]
			for _, r := range roots {
				if !s.visited[r] {
					s.queue = append(s.queue, r)
				}
			}
		}
	}
	for len(s.queue) > 0 {
		root := s.queue[0]
		s.queue = s.queue[1:]
		if s.visited[root] {
			s.in.pruned(1)
			continue
		}
		s.visited[root] = true
		s.in.visited()
		s.cur = root
		return root, true
	}
	return 0, false
}

// answer resumes the search with the verdict on the point next
// returned: whether it contains a complete body for h.
func (s *bodySearch) answer(hasBody bool) {
	switch s.stage {
	case stageBodyless:
		s.stage = stageRoot
		if hasBody {
			s.found = []boolean.Tuple{0}
			return
		}
		s.queue = []boolean.Tuple{s.top}
	case stageRoot:
		if hasBody {
			// Algorithm 6: from the root, greedily set each free
			// variable to false, keeping the change whenever the
			// question remains a non-answer.
			s.drop, s.stage = s.cur.Intersect(s.free), stageMinimize
		}
	case stageMinimize:
		v := s.drop.Lowest()
		if hasBody {
			s.cur = s.cur.Without(v)
		}
		s.drop = s.drop.Without(v)
	}
}

// bodyRoots appends to dst the tuples obtained from top by setting
// false exactly one variable from each body in found (the cartesian
// product of the bodies), deduplicated, in descending order.
func bodyRoots(dst []boolean.Tuple, top boolean.Tuple, found []boolean.Tuple) []boolean.Tuple {
	start := len(dst)
	var rec func(i int, excluded boolean.Tuple)
	rec = func(i int, excluded boolean.Tuple) {
		if i == len(found) {
			dst = append(dst, top.Minus(excluded))
			return
		}
		for b := found[i]; b != 0; b &= b - 1 {
			rec(i+1, excluded|(b&-b))
		}
	}
	rec(0, 0)
	roots := dst[start:]
	slices.Sort(roots)
	roots = slices.Compact(roots)
	slices.Reverse(roots)
	return dst[:start+len(roots)]
}

// findConjunctions runs the lattice descent of Algorithm 7 over the
// full Boolean lattice, given the already-learned universal Horn
// expressions. It returns the distinguishing tuples of the target's
// dominant existential conjunctions (possibly including guarantee
// clauses, which Normalize later folds in).
func (l *rpLearner) findConjunctions(universals []query.Expr) []boolean.Tuple {
	defer l.in.begin("lattice-search", obs.A("target", "conjunctions"))()
	qU := query.Query{U: l.u, Exprs: universals}

	// Seed the discovered set with the distinguishing tuples of the
	// guarantee clauses: they are conjunctions of every consistent
	// target, keep every question's universal guarantees satisfied,
	// and implement the paper's optimization of not descending below
	// them.
	var discovered []boolean.Tuple
	if !l.ablations.NoGuaranteeSeeds {
		for _, e := range universals {
			g := qU.Closure(e.Body.With(e.Head))
			if !containsTuple(discovered, g) {
				discovered = append(discovered, g)
			}
		}
	}

	dominatedByDiscovered := func(t boolean.Tuple) bool {
		for _, d := range discovered {
			if d.Contains(t) {
				return true
			}
		}
		return false
	}

	frontier := []boolean.Tuple{l.u.All()}
	// Reused across iterations: each question's children live one
	// iteration; the dedupe set and the spent frontier's storage,
	// which holds the next level, one level. At step i, l.pending is
	// discovered ∪ frontier[i+1:] ∪ next.
	var children, next []boolean.Tuple
	seen := map[boolean.Tuple]bool{}
	for len(frontier) > 0 {
		l.pending = append(append(l.pending[:0], discovered...), frontier...)
		slices.Sort(l.pending)
		for i := 0; i < len(frontier); i++ {
			t := frontier[i]
			l.pending = removeSorted(l.pending, t)
			if dominatedByDiscovered(t) {
				// Everything at or below t is dominated by a known
				// conjunction (rule R1): stop descending.
				l.in.pruned(1)
				continue
			}
			l.in.visited()
			// Children that do not violate a universal Horn
			// expression (the lattice of §3.2.2 with violating
			// tuples removed), in descending order.
			children = children[:0]
			for b := t; b != 0; b &= b - 1 {
				c := t &^ (b & -b)
				if !qU.Violates(c) {
					children = append(children, c)
				} else {
					l.in.pruned(1)
				}
			}
			notef(&l.in, "existential", conjunctionPurpose, t)
			l.buf = mergeUnion(l.buf, l.pending, nil, children)
			if l.ask(boolean.NewSet(l.buf...)) {
				for _, k := range l.pruneTuples(children, l.pending) {
					next = append(next, k)
					l.pending = insertSorted(l.pending, k)
				}
			} else {
				// Replacing t with its children flipped the response:
				// t distinguishes a conjunction of the target.
				discovered = append(discovered, t)
				l.pending = insertSorted(l.pending, t)
			}
		}
		frontier, next = dedupeTuples(next, seen), frontier[:0]
	}
	return discovered
}

// pruneTuples implements Algorithm 8: it returns a small subset K of
// cands such that the question base ∪ K is still an answer, asking
// O(|K| lg |cands|) questions. Monotonicity holds because every tuple
// involved is universal-violation free. base is ascending and cands
// descending, as findConjunctions builds them, so every question is a
// merge of sorted pieces.
func (l *rpLearner) pruneTuples(cands []boolean.Tuple, base []boolean.Tuple) []boolean.Tuple {
	defer l.in.begin("prune")()
	// askWith asks base ∪ kept ∪ desc, where desc, like cands, is
	// descending.
	askWith := func(desc []boolean.Tuple) bool {
		l.in.note("existential", "which candidate tuples are needed to keep your query satisfied?")
		l.buf = mergeUnion(l.buf, base, l.keptAsc, desc)
		return l.ask(boolean.NewSet(l.buf...))
	}
	l.kept, l.keptAsc = l.kept[:0], l.keptAsc[:0]
	if l.ablations.SerialPrune {
		// The pre-optimization strategy of §3.2.2: try removing each
		// tuple individually, keeping it when the question flips to a
		// non-answer. One question per candidate.
		kept := append([]boolean.Tuple{}, cands...)
		for i := 0; i < len(kept); {
			without := append(append([]boolean.Tuple{}, kept[:i]...), kept[i+1:]...)
			if askWith(without) {
				kept = without
			} else {
				i++
			}
		}
		return kept
	}
	for !askWith(nil) {
		// The full candidate set restores the answer; binary-search
		// one necessary tuple.
		l.pool = l.pool[:0]
		for _, c := range cands {
			if !containsTuple(l.kept, c) {
				l.pool = append(l.pool, c)
			}
		}
		if len(l.pool) == 0 {
			// Only possible with an oracle inconsistent with every
			// query in the class (e.g. a noisy user): the answer
			// cannot be restored, so keep everything and move on.
			return cands
		}
		// The tuple sought lies in pool[lo:hi]. The settled halves and
		// the half on trial are always a prefix of the pool.
		lo, hi := 0, len(l.pool)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if askWith(l.pool[:mid]) {
				hi = mid
			} else {
				lo = mid
			}
		}
		l.kept = append(l.kept, l.pool[lo])
		l.keptAsc = insertSorted(l.keptAsc, l.pool[lo])
	}
	return l.kept
}

func containsTuple(ts []boolean.Tuple, t boolean.Tuple) bool {
	for _, u := range ts {
		if u == t {
			return true
		}
	}
	return false
}

// mergeUnion returns, in buf's storage, the union of a and b, both
// ascending, and desc, descending: ascending and without repeats,
// which boolean.NewSet takes without sorting. A piece may hold
// repeats.
func mergeUnion(buf, a, b, desc []boolean.Tuple) []boolean.Tuple {
	dst, k := slices.Grow(buf[:0], len(a)+len(b)+len(desc)), len(desc)
	for len(a) > 0 || len(b) > 0 || k > 0 {
		var t boolean.Tuple
		switch {
		case len(a) > 0 && (len(b) == 0 || a[0] <= b[0]) && (k == 0 || a[0] <= desc[k-1]):
			t, a = a[0], a[1:]
		case len(b) > 0 && (k == 0 || b[0] <= desc[k-1]):
			t, b = b[0], b[1:]
		default:
			k--
			t = desc[k]
		}
		if n := len(dst); n == 0 || dst[n-1] != t {
			dst = append(dst, t)
		}
	}
	return dst
}

// insertSorted inserts t into the ascending ts, keeping repeats.
func insertSorted(ts []boolean.Tuple, t boolean.Tuple) []boolean.Tuple {
	i, _ := slices.BinarySearch(ts, t)
	return slices.Insert(ts, i, t)
}

// removeSorted removes one copy of t from the ascending ts, if it
// holds one.
func removeSorted(ts []boolean.Tuple, t boolean.Tuple) []boolean.Tuple {
	if i, ok := slices.BinarySearch(ts, t); ok {
		return slices.Delete(ts, i, i+1)
	}
	return ts
}

// dedupeTuples removes repeats from ts in place, keeping first
// occurrences in order; seen is scratch, cleared first.
func dedupeTuples(ts []boolean.Tuple, seen map[boolean.Tuple]bool) []boolean.Tuple {
	clear(seen)
	out := ts[:0]
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
