package brute

import (
	"math/rand"
	"os"
	"testing"

	"qhorn/internal/bitvec"
	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// Answer reports the precomputed answer of candidate i to pool
// question j.
func (m *Matrix) Answer(i, j int) bool { return bitvec.Get(m.rows[j], i) }

// recordingOracle wraps an oracle and records the exact question
// sequence, for pinning the matrix path's questions against serial.
type recordingOracle struct {
	inner oracle.Oracle
	asked []boolean.Set
}

func (r *recordingOracle) Ask(s boolean.Set) bool {
	r.asked = append(r.asked, s)
	return r.inner.Ask(s)
}

func sameQuestions(a, b []boolean.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestMatrixBitIdentical pins the matrix-backed Learn against the
// serial reference path on every role-preserving target over 2
// variables: same questions in the same order, same counts, same
// learned query.
func TestMatrixBitIdentical(t *testing.T) {
	u := boolean.MustUniverse(2)
	candidates := query.AllQueries(u)
	pool := boolean.AllObjects(u)
	m := NewMatrix(candidates, pool, nil)
	for _, target := range candidates {
		rs := &recordingOracle{inner: oracle.Target(target)}
		rm := &recordingOracle{inner: oracle.Target(target)}
		resS, errS := LearnSerial(candidates, rs, pool)
		resM, errM := m.Learn(rm)
		if errS != errM {
			t.Fatalf("target %s: serial err %v, matrix err %v", target, errS, errM)
		}
		if !sameQuestions(rs.asked, rm.asked) {
			t.Fatalf("target %s: question sequences differ (%d vs %d)",
				target, len(rs.asked), len(rm.asked))
		}
		if resS.Questions != resM.Questions || resS.Remaining != resM.Remaining {
			t.Fatalf("target %s: serial %+v, matrix %+v", target, resS, resM)
		}
		if !resS.Learned.Equal(resM.Learned) {
			t.Fatalf("target %s: serial learned %s, matrix learned %s",
				target, resS.Learned, resM.Learned)
		}
	}
}

// TestMatrixBitIdenticalAdversary repeats the identity check against
// the alias adversary, whose answers depend on the exact question
// sequence — any divergence would change the count.
func TestMatrixBitIdenticalAdversary(t *testing.T) {
	for _, n := range []int{3, 4} {
		u := boolean.MustUniverse(n)
		class := oracle.AliasClass(u)
		pool := oracle.AliasQuestions(u)
		resS, errS := LearnSerial(class, oracle.NewAdversary(class), pool)
		resM, errM := Learn(class, oracle.NewAdversary(class), pool)
		if errS != errM || resS.Questions != resM.Questions || resS.Remaining != resM.Remaining {
			t.Fatalf("n=%d: serial (%+v, %v), matrix (%+v, %v)", n, resS, errS, resM, errM)
		}
		if !resS.Learned.Equal(resM.Learned) {
			t.Fatalf("n=%d: learned queries differ", n)
		}
	}
}

// TestAllEquivalentFallback: when the pool cannot distinguish the
// candidates their matrix rows are identical, so the equivalence
// prefilter is inconclusive and the semantic check decides — stopping
// immediately for equivalent candidates, ErrAmbiguous otherwise.
func TestAllEquivalentFallback(t *testing.T) {
	u := boolean.MustUniverse(3)

	// Syntactically different but semantically equivalent candidates:
	// rows identical, semantic fallback says stop without a question.
	equivalent := []query.Query{
		query.MustParse(u, "∃x1x2x3 ∃x1x2"),
		query.MustParse(u, "∃x1x2x3"),
	}
	c := oracle.Count(oracle.Target(equivalent[0]), nil)
	res, err := NewMatrix(equivalent, boolean.AllObjects(u), nil).Learn(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions != 0 || c.Questions != 0 {
		t.Errorf("equivalent candidates cost %d questions, want 0", res.Questions)
	}

	// Semantically distinct candidates over a pool that cannot separate
	// them: rows identical, fallback must detect inequivalence and both
	// paths report ErrAmbiguous with both candidates remaining.
	distinct := []query.Query{
		query.MustParse(u, "∃x1"),
		query.MustParse(u, "∃x2"),
	}
	blind := []boolean.Set{boolean.MustParseSet(u, "{110}"), boolean.MustParseSet(u, "{111}")}
	m := NewMatrix(distinct, blind, nil)
	if m.Answer(0, 0) != m.Answer(1, 0) || m.Answer(0, 1) != m.Answer(1, 1) {
		t.Fatal("pool unexpectedly distinguishes the candidates")
	}
	res, err = m.Learn(oracle.Target(distinct[0]))
	if err != ErrAmbiguous {
		t.Errorf("matrix: err = %v, want ErrAmbiguous", err)
	}
	if res.Remaining != 2 {
		t.Errorf("matrix: remaining = %d, want 2", res.Remaining)
	}
	serialRes, serialErr := LearnSerial(distinct, oracle.Target(distinct[0]), blind)
	if serialErr != ErrAmbiguous || serialRes.Remaining != 2 {
		t.Errorf("serial: (%+v, %v), want ErrAmbiguous with 2 remaining", serialRes, serialErr)
	}
}

// TestMatrixReuse: one matrix drives multiple runs against different
// oracles without cross-talk (the elimination state is per-run).
func TestMatrixReuse(t *testing.T) {
	u := boolean.MustUniverse(2)
	candidates := query.AllQueries(u)
	m := NewMatrix(candidates, boolean.AllObjects(u), nil)
	for _, target := range candidates {
		res, err := m.Learn(oracle.Target(target))
		if err != nil {
			t.Fatalf("target %s: %v", target, err)
		}
		if !res.Learned.Equivalent(target) {
			t.Fatalf("target %s learned as %s", target, res.Learned)
		}
	}
}

// TestMatrixLargeCandidateSet crosses the one-word boundary (>64
// candidates) so multi-word rem/row handling is exercised, and pins a
// sampled run against serial.
func TestMatrixLargeCandidateSet(t *testing.T) {
	u := boolean.MustUniverse(3)
	candidates := query.AllQueries(u)
	if len(candidates) <= 64 {
		t.Fatalf("want >64 candidates, got %d", len(candidates))
	}
	pool := boolean.AllObjects(u)
	m := NewMatrix(candidates, pool, nil)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		target := candidates[rng.Intn(len(candidates))]
		rs := &recordingOracle{inner: oracle.Target(target)}
		rm := &recordingOracle{inner: oracle.Target(target)}
		resS, errS := LearnSerial(candidates, rs, pool)
		resM, errM := m.Learn(rm)
		if errS != errM || resS.Questions != resM.Questions || !resS.Learned.Equal(resM.Learned) {
			t.Fatalf("target %s: serial (%+v, %v), matrix (%+v, %v)", target, resS, errS, resM, errM)
		}
		if !sameQuestions(rs.asked, rm.asked) {
			t.Fatalf("target %s: question sequences diverged", target)
		}
	}
}

// TestMatrixEmptyInputs covers the degenerate corners.
func TestMatrixEmptyInputs(t *testing.T) {
	u := boolean.MustUniverse(2)
	m := NewMatrix(nil, boolean.AllObjects(u), nil)
	if _, err := m.Learn(oracle.Func(func(boolean.Set) bool { return false })); err != ErrNoCandidates {
		t.Errorf("Learn on empty candidates: err = %v", err)
	}
	// Empty pool with equivalent candidates: immediate success.
	one := []query.Query{query.MustParse(u, "∃x1")}
	res, err := NewMatrix(one, nil, nil).Learn(oracle.Target(one[0]))
	if err != nil || res.Questions != 0 || res.Remaining != 1 {
		t.Errorf("empty pool: (%+v, %v)", res, err)
	}
}

// TestMatrixIntoTimingMetrics checks a matrix built with a registry
// records the build and learn durations, and that one built without
// stays metric-silent.
func TestMatrixIntoTimingMetrics(t *testing.T) {
	u := boolean.MustUniverse(2)
	candidates := query.AllQueries(u)
	pool := boolean.AllObjects(u)
	reg := obs.NewRegistry()
	m := NewMatrix(candidates, pool, reg)
	if got := reg.Histogram(obs.MetricBruteBuildSeconds, obs.LatencyBuckets).Count(); got != 1 {
		t.Errorf("build observations = %d, want 1", got)
	}

	target := oracle.Target(candidates[0])
	for i := 0; i < 2; i++ {
		if _, err := m.Learn(target); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Histogram(obs.MetricBruteLearnSeconds, obs.LatencyBuckets).Count(); got != 2 {
		t.Errorf("learn observations = %d, want 2", got)
	}

	// A matrix without a registry must not panic and must record
	// nothing.
	bare := NewMatrix(candidates, pool, nil)
	if _, err := bare.Learn(target); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram(obs.MetricBruteLearnSeconds, obs.LatencyBuckets).Count(); got != 2 {
		t.Errorf("bare matrix leaked observations into the registry: %d", got)
	}
}

// matrixVariants names the builds of the matrix engine the identity
// tests run; the bit-sliced slab kernel is the one build.
var matrixVariants = []struct {
	name string
}{
	{"sliced"},
}

// TestMatrixBitIdenticalVariants extends the bit-identity pin to every
// build: each must ask exactly the serial reference's questions, in
// order, on every target.
func TestMatrixBitIdenticalVariants(t *testing.T) {
	u := boolean.MustUniverse(3)
	candidates := query.AllQueries(u)
	pool := boolean.AllObjects(u)
	rng := rand.New(rand.NewSource(67))
	var targets []query.Query
	for i := 0; i < 6; i++ {
		targets = append(targets, candidates[rng.Intn(len(candidates))])
	}
	for _, v := range matrixVariants {
		t.Run(v.name, func(t *testing.T) {
			m := NewMatrix(candidates, pool, nil)
			for _, target := range targets {
				rs := &recordingOracle{inner: oracle.Target(target)}
				rm := &recordingOracle{inner: oracle.Target(target)}
				resS, errS := LearnSerial(candidates, rs, pool)
				resM, errM := m.Learn(rm)
				if errS != errM {
					t.Fatalf("target %s: serial err %v, matrix err %v", target, errS, errM)
				}
				if !sameQuestions(rs.asked, rm.asked) {
					t.Fatalf("target %s: question sequences differ (%d vs %d)",
						target, len(rs.asked), len(rm.asked))
				}
				if resS.Questions != resM.Questions || resS.Remaining != resM.Remaining ||
					!resS.Learned.Equal(resM.Learned) {
					t.Fatalf("target %s: serial %+v, matrix %+v", target, resS, resM)
				}
			}
		})
	}
}

// TestMatrixAnswerVariants: Answer must read the same bit out of every
// build, pinned against direct kernel evaluation.
func TestMatrixAnswerVariants(t *testing.T) {
	u := boolean.MustUniverse(3)
	candidates := query.AllQueries(u)
	pool := boolean.AllObjects(u)
	compiled := make([]*query.Compiled, len(candidates))
	for i, q := range candidates {
		compiled[i] = query.Compile(q)
	}
	rng := rand.New(rand.NewSource(71))
	for _, v := range matrixVariants {
		m := NewMatrix(candidates, pool, nil)
		for probe := 0; probe < 400; probe++ {
			i, j := rng.Intn(len(candidates)), rng.Intn(len(pool))
			if got, want := m.Answer(i, j), compiled[i].Eval(pool[j]); got != want {
				t.Fatalf("%s: Answer(%d, %d) = %v, kernel says %v", v.name, i, j, got, want)
			}
		}
	}
}

// TestMatrixRowsMatchKernelExhaustive pins everything the matrix
// stores against per-candidate compiled evaluation, for every
// candidate and every pool object at n=3: the question-major bit
// Answer reads, the candidate-major row and its fingerprint.
func TestMatrixRowsMatchKernelExhaustive(t *testing.T) {
	u := boolean.MustUniverse(3)
	candidates := query.AllQueries(u)
	pool := boolean.AllObjects(u)
	m := NewMatrix(candidates, pool, nil)
	for i, q := range candidates {
		c := query.Compile(q)
		want := make([]uint64, bitvec.Words(len(pool)))
		for j, obj := range pool {
			ans := c.Eval(obj)
			if ans {
				bitvec.Set(want, j)
			}
			if m.Answer(i, j) != ans {
				t.Fatalf("Answer(%d, %d) = %v, kernel says %v", i, j, m.Answer(i, j), ans)
			}
		}
		if !bitvec.Equal(m.candRows[i], want) {
			t.Fatalf("candidate %d: row differs from the kernel's answers", i)
		}
		if m.finger[i] != fingerprint(want) {
			t.Fatalf("candidate %d: fingerprint differs from the kernel row's", i)
		}
	}
}

// TestMatrixBitIdenticalExhaustiveN4 is the CI brute-smoke gate: at
// n=4 (1576 candidates × 65536 objects) the matrix learners must stay
// bit-identical to the serial sequential reference on sampled targets,
// for every build. The serial
// baseline is minutes of interpreted evaluation, so the gate only runs
// when QHORN_BRUTE_N4 is set (the brute-smoke CI job) and never under
// -short.
func TestMatrixBitIdenticalExhaustiveN4(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4 exhaustive identity gate skipped in -short")
	}
	if os.Getenv("QHORN_BRUTE_N4") == "" {
		t.Skip("set QHORN_BRUTE_N4=1 to run the n=4 exhaustive identity gate")
	}
	u := boolean.MustUniverse(4)
	candidates := query.AllQueries(u)
	pool := boolean.AllObjects(u)
	rng := rand.New(rand.NewSource(73))
	var targets []query.Query
	for i := 0; i < 3; i++ {
		targets = append(targets, candidates[rng.Intn(len(candidates))])
	}
	// One serial reference run per target, reused against every variant.
	type ref struct {
		res   Result
		err   error
		asked []boolean.Set
	}
	refs := make([]ref, len(targets))
	for i, target := range targets {
		rs := &recordingOracle{inner: oracle.Target(target)}
		res, err := LearnSerial(candidates, rs, pool)
		refs[i] = ref{res: res, err: err, asked: rs.asked}
	}
	for _, v := range matrixVariants {
		m := NewMatrix(candidates, pool, nil)
		for i, target := range targets {
			rm := &recordingOracle{inner: oracle.Target(target)}
			res, err := m.Learn(rm)
			if err != refs[i].err || res.Questions != refs[i].res.Questions ||
				res.Remaining != refs[i].res.Remaining || !res.Learned.Equal(refs[i].res.Learned) {
				t.Fatalf("%s target %s: matrix (%+v, %v), serial (%+v, %v)",
					v.name, target, res, err, refs[i].res, refs[i].err)
			}
			if !sameQuestions(refs[i].asked, rm.asked) {
				t.Fatalf("%s target %s: question sequence diverged from serial", v.name, target)
			}
		}
	}
}
