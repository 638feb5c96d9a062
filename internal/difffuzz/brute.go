package difffuzz

import (
	"math/rand"
	"sync"

	"qhorn/internal/boolean"
	"qhorn/internal/brute"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// Sampled-judge pool sizes: enough candidates that the elimination has
// real work to do, few enough that the per-case matrix build stays in
// the low milliseconds (the sampled matrix depends on the hidden query
// through its seeded pool, so it cannot be cached across cases).
const (
	bruteSampleQueries = 160
	bruteSampleObjects = 128
)

// bruteMatrixCache holds one exhaustive answer matrix per universe
// size. The exhaustive judge's candidates and question pool are
// functions of the universe alone, so the matrix — the expensive part,
// |AllQueries| × |AllObjects| answers — is shared by every case on that
// universe for the life of the process.
var bruteMatrixCache sync.Map

// bruteMatrixFor returns the process-cached exhaustive answer matrix
// for u. Concurrent callers may race to build; the winner's matrix is
// shared.
func bruteMatrixFor(u boolean.Universe) *brute.Matrix {
	if m, ok := bruteMatrixCache.Load(u.N()); ok {
		return m.(*brute.Matrix)
	}
	m := brute.NewMatrix(query.AllQueries(u), boolean.AllObjects(u), nil)
	prev, _ := bruteMatrixCache.LoadOrStore(u.N(), m)
	return prev.(*brute.Matrix)
}

// judgeBruteSampled is the sampled brute cross-check for universes past
// the exhaustive range: a seeded draw of candidate queries — always
// including the hidden query's normal form — eliminated over a seeded
// draw of probe objects. The sample is a pure function of the hidden
// query, so a failing case keeps failing. A sampled pool need not
// separate every candidate pair, so ErrAmbiguous is tolerated; but when
// elimination does single out a candidate, every survivor was
// semantically equivalent, so the winner must be equivalent to the
// hidden query — anything else is a disagreement in the learner or the
// equivalence decision.
func judgeBruteSampled(res *CaseResult, c Case, opt Options, fail func(kind Kind, w Witness, hasW bool, format string, args ...interface{})) {
	u := c.Hidden.U
	srng := rand.New(rand.NewSource(witnessSeed(c.Hidden, c.Hidden) ^ 0x62727574)) // "brut"
	candidates := query.SampleQueries(srng, u, bruteSampleQueries)
	nf := c.Hidden.Normalize()
	present := false
	for _, q := range candidates {
		if q.Equal(nf) {
			present = true
			break
		}
	}
	if !present {
		candidates = append(candidates, nf)
	}
	pool := boolean.SampleObjects(srng, u, bruteSampleObjects)
	m := brute.NewMatrix(candidates, pool, nil)
	bres, err := m.Learn(oracle.Target(c.Hidden))
	switch {
	case err == brute.ErrAmbiguous:
		// The sampled pool did not separate every candidate pair —
		// expected sometimes; not a disagreement.
	case err != nil:
		fail(KindBrute, Witness{}, false, "sampled brute.Learn: %v", err)
	default:
		res.Questions += bres.Questions
		if !bres.Learned.Equivalent(c.Hidden) {
			fail(KindBrute, Witness{}, false,
				"sampled brute learned %s, not equivalent to hidden %s", bres.Learned, c.Hidden)
		}
	}
}
