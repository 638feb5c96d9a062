package brute

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qhorn/internal/bitvec"
	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// This file implements the bitset answer-matrix engine behind Learn
// (docs/PERFORMANCE.md). The serial learners
// re-evaluate every remaining candidate against every pool question on
// every elimination step — O(remaining·pool) interpreted Eval calls per
// question — and allEquivalent re-normalizes candidate pairs per round.
// The matrix precomputes every candidate's answer to every pool
// question exactly once, after which split counting and elimination
// are word-wise AND plus popcount over packed rows. The question
// sequence is bit-identical to the serial path: TestMatrixBitIdentical
// pins questions, counts and outcomes against LearnSerial on every
// target.
//
// The rows are built by a worker pool through the bit-sliced kernel —
// query.CompileSlab answers one pool question for 64 candidates per
// EvalAll call, deduplicating the requirement masks and Horn rules the
// candidates share — and held in RAM, question-major, beside a
// candidate-major copy for the equivalence prefilter. The full n=4
// space (1576 candidates × 65536 objects) is about 13 MB per
// orientation, so no workload this repo runs needs another storage.

// Matrix is a precomputed candidates×pool answer matrix: bit i of
// question row j is candidate i's answer to pool question j. It is
// immutable after construction and safe for concurrent use; one matrix
// can drive any number of Learn runs against different
// oracles (the elimination state lives in the run, not the matrix).
type Matrix struct {
	candidates []query.Query
	compiled   []*query.Compiled
	pool       []boolean.Set
	// rows[j] holds bit i set iff candidate i answers yes to pool
	// question j (question-major: what elimination reads).
	rows [][]uint64
	// finger[i] is a hash of candidate i's full answer row. Differing
	// fingerprints certify differing rows, hence inequivalence under
	// the pool — a cheaper prefilter than the full row compare.
	finger []uint64
	// candRows[i][w] holds bit j of word w set iff candidate i answers
	// yes to pool question 64w+j (candidate-major, the exact
	// equivalence prefilter: differing rows certify inequivalence).
	candRows [][]uint64
	// reg receives the matrix's engine metrics (build and learn wall
	// times); nil is silent.
	reg *obs.Registry
}

// NewMatrix builds the answer matrix for the candidate set over the
// question pool. A pool of one worker per CPU (runtime.GOMAXPROCS)
// claims one 64-wide candidate slab at a time — the slab's EvalAll
// answers a question for the whole word of candidates, and slabs touch
// disjoint row words, so the build needs no locking. A non-nil
// registry receives the build wall time
// (qhorn_brute_matrix_build_seconds) and the matrix's Learn wall times
// (qhorn_brute_learn_seconds).
func NewMatrix(candidates []query.Query, pool []boolean.Set, reg *obs.Registry) *Matrix {
	buildStart := time.Now()
	words := bitvec.Words(len(candidates))
	m := &Matrix{
		candidates: candidates,
		compiled:   make([]*query.Compiled, len(candidates)),
		pool:       pool,
		rows:       make([][]uint64, len(pool)),
		finger:     make([]uint64, len(candidates)),
		candRows:   make([][]uint64, len(candidates)),
		reg:        reg,
	}
	backing := make([]uint64, len(pool)*words)
	for j := range m.rows {
		m.rows[j] = backing[j*words : (j+1)*words : (j+1)*words]
	}
	poolWords := bitvec.Words(len(pool))
	workers := min(runtime.GOMAXPROCS(0), words)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sw := int(next.Add(1) - 1)
				if sw >= words {
					return
				}
				lo := sw << 6
				hi := lo + 64
				if hi > len(candidates) {
					hi = len(candidates)
				}
				chunk := candidates[lo:hi]
				for i, q := range chunk {
					m.compiled[lo+i] = query.Compile(q)
				}
				rows := make([][]uint64, len(chunk))
				for i := range rows {
					rows[i] = make([]uint64, poolWords)
				}
				slab := query.CompileSlab(chunk)
				for j, obj := range pool {
					word := slab.EvalAll(obj)
					m.rows[j][sw] = word
					for word != 0 {
						i := bits.TrailingZeros64(word)
						word &= word - 1
						bitvec.Set(rows[i], j)
					}
				}
				for i, row := range rows {
					m.finger[lo+i] = fingerprint(row)
					m.candRows[lo+i] = row
				}
			}
		}()
	}
	wg.Wait()
	m.reg.Histogram(obs.MetricBruteBuildSeconds, obs.LatencyBuckets).Observe(time.Since(buildStart).Seconds())
	return m
}

// fingerprint hashes one candidate-major row (FNV-1a over its words).
func fingerprint(row []uint64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, w := range row {
		for b := 0; b < 64; b += 8 {
			h ^= (w >> uint(b)) & 0xff
			h *= prime
		}
	}
	return h
}

// rowCount returns popcount(rem & row j).
func (m *Matrix) rowCount(rem []uint64, j int) int {
	return bitvec.AndCount(m.rows[j], rem)
}

// rowApply folds question j's answer into the remaining mask:
// rem &= row (keep) or rem &^= row (eliminate the yes-sayers).
func (m *Matrix) rowApply(rem []uint64, j int, keep bool) {
	if keep {
		bitvec.AndInto(rem, m.rows[j])
	} else {
		bitvec.AndNotInto(rem, m.rows[j])
	}
}

// timeLearn observes one Learn run's wall time; a no-op without a
// registry.
func (m *Matrix) timeLearn() func() {
	if m.reg == nil {
		return func() {}
	}
	h := m.reg.Histogram(obs.MetricBruteLearnSeconds, obs.LatencyBuckets)
	begun := time.Now()
	return func() { h.Observe(time.Since(begun).Seconds()) }
}

// Learn runs the sequential elimination learner over the matrix; see
// Learn for the contract. Question selection, counts and the learned
// query are bit-identical to LearnSerial.
func (m *Matrix) Learn(o oracle.Oracle) (Result, error) {
	if len(m.candidates) == 0 {
		return Result{}, ErrNoCandidates
	}
	defer m.timeLearn()()
	rem := bitvec.Full(len(m.candidates))
	count := len(m.candidates)
	res := Result{}
	for j := range m.pool {
		if m.allEquivalentRem(rem, count) {
			break
		}
		yes := m.rowCount(rem, j)
		no := count - yes
		if yes == 0 || no == 0 {
			continue // uninformative
		}
		res.Questions++
		if o.Ask(m.pool[j]) {
			m.rowApply(rem, j, true)
			count = yes
		} else {
			m.rowApply(rem, j, false)
			count = no
		}
	}
	res.Remaining = count
	res.Learned = m.candidates[bitvec.FirstBit(rem)]
	if !m.allEquivalentRem(rem, count) {
		return res, ErrAmbiguous
	}
	return res, nil
}

// allEquivalentRem reports whether every remaining candidate is
// semantically equivalent to the first. Candidates whose matrix rows
// differ are separated by a pool question, hence certainly
// inequivalent; differing row fingerprints certify that cheaply, and
// an exact comparison of the candidate-major rows catches the rest of
// the separable pairs. Only candidates these filters cannot
// split fall through to the pairwise semantic check, which reuses the
// kernels' cached normal forms. The decision is exactly
// allEquivalent's over the remaining candidates.
func (m *Matrix) allEquivalentRem(rem []uint64, count int) bool {
	if count <= 1 {
		return true
	}
	first := -1
	for w, word := range rem {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if first == -1 {
				first = i
				continue
			}
			if m.finger[first] != m.finger[i] {
				return false
			}
			if !bitvec.Equal(m.candRows[first], m.candRows[i]) {
				return false
			}
			if !m.compiled[first].Equivalent(m.compiled[i]) {
				return false
			}
		}
	}
	return true
}
