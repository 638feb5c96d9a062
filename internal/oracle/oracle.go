// Package oracle implements the membership-question oracles of the
// qhorn learning model (§2.1.2). A membership question is an object —
// a set of Boolean tuples — that the user classifies as an answer or
// a non-answer to her intended query.
//
// The package provides the user simulations every experiment needs:
// an oracle backed by a hidden target query, instrumentation wrappers
// that count questions and tuples (the complexity measures of every
// theorem in the paper), a transcript recorder, a response-flipping
// noisy oracle (§5, "Noisy Users"), an interactive oracle that asks a
// human over an io.Reader/Writer pair, and the adversarial oracles
// that realize the paper's lower-bound constructions (Theorem 2.1,
// Lemma 3.4, Theorem 3.6).
package oracle

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/query"
)

// Oracle answers membership questions: Ask reports whether the object
// s is an answer (true) or a non-answer (false) to the user's
// intended query.
type Oracle interface {
	Ask(s boolean.Set) bool
}

// Func adapts a function to the Oracle interface.
type Func func(boolean.Set) bool

// Ask implements Oracle.
func (f Func) Ask(s boolean.Set) bool { return f(s) }

// Target returns an oracle that answers according to the given target
// query — the simulated user of every learning experiment. The
// substitution is exact: the paper's question counts are worst-case
// over users consistent with some query in the class.
//
// Answers are computed by the compiled evaluation kernel
// (query.Compile), which the difffuzz kernel judge pins bit-identical
// to the interpreted Query.Eval, the specification. A caller that
// wants the interpreted evaluator as an oracle writes Func(q.Eval).
func Target(q query.Query) Oracle {
	return Func(query.Compile(q).Eval)
}

// Counter wraps an oracle and records the complexity measures the
// paper reports: the number of questions asked, the total and maximum
// number of tuples per question. It is safe for concurrent use —
// concurrent experiment sweeps may share one Counter — but the public
// fields must only be read once the learners using it have returned
// (or through Snapshot, which locks). The zero value is not usable;
// wrap with Count.
type Counter struct {
	mu        sync.Mutex
	inner     Oracle
	Questions int
	Tuples    int
	MaxTuples int

	// The registry's handles, resolved once in Count so a question
	// skips the registry's label formatting and lock; all nil without
	// a registry.
	questions, tuples *obs.Counter
	perQuestion, ask  *obs.Histogram
}

// Count wraps inner with a fresh Counter. A non-nil registry makes
// the Counter double as a thin adapter over it: every question also
// updates qhorn_questions_total, qhorn_tuples_total, the
// tuples-per-question histogram and the oracle answer-latency
// histogram.
func Count(inner Oracle, reg *obs.Registry) *Counter {
	c := &Counter{inner: inner}
	if reg != nil {
		c.questions = reg.Counter(obs.MetricQuestions)
		c.tuples = reg.Counter(obs.MetricTuples)
		c.perQuestion = reg.Histogram(obs.MetricTuplesPerQuestion, obs.TuplesPerQuestionBuckets)
		c.ask = reg.Histogram(obs.MetricOracleAskSeconds, obs.LatencyBuckets)
	}
	return c
}

// Ask implements Oracle, forwarding to the wrapped oracle.
func (c *Counter) Ask(s boolean.Set) bool {
	size := s.Size()
	c.mu.Lock()
	c.Questions++
	c.Tuples += size
	if size > c.MaxTuples {
		c.MaxTuples = size
	}
	c.mu.Unlock()
	if c.questions == nil {
		return c.inner.Ask(s)
	}
	c.questions.Inc()
	c.tuples.Add(int64(size))
	c.perQuestion.Observe(float64(size))
	start := time.Now()
	a := c.inner.Ask(s)
	c.ask.Observe(time.Since(start).Seconds())
	return a
}

// AskBatch implements BatchOracle. The accounting is identical to
// asking each question serially — same question, tuple, and histogram
// increments, recorded before the inner oracle is consulted — except
// that batched questions are counted but not timed per ask: the
// inner oracle answers the batch as one call, so there is no
// per-question latency to observe in qhorn_oracle_ask_seconds.
func (c *Counter) AskBatch(qs []boolean.Set) []bool {
	c.mu.Lock()
	for _, q := range qs {
		size := q.Size()
		c.Questions++
		c.Tuples += size
		if size > c.MaxTuples {
			c.MaxTuples = size
		}
	}
	c.mu.Unlock()
	if c.questions != nil {
		c.questions.Add(int64(len(qs)))
		for _, q := range qs {
			c.tuples.Add(int64(q.Size()))
			c.perQuestion.Observe(float64(q.Size()))
		}
	}
	return AskAll(c.inner, qs)
}

// Snapshot returns a consistent view of the counters, safe to call
// while learners are still asking.
func (c *Counter) Snapshot() (questions, tuples, maxTuples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Questions, c.Tuples, c.MaxTuples
}

// Reset clears the counters.
func (c *Counter) Reset() {
	c.mu.Lock()
	c.Questions, c.Tuples, c.MaxTuples = 0, 0, 0
	c.mu.Unlock()
}

// Entry is one recorded membership question and its response.
type Entry struct {
	Question boolean.Set
	Answer   bool
}

// Transcript wraps an oracle and records every question and response,
// in order. A transcript is the interaction history that §5 proposes
// showing users so they can revise mistaken responses. It is safe for
// concurrent use; read Entries only after the learners using it have
// returned, or through Len/Copy which lock.
type Transcript struct {
	mu      sync.Mutex
	inner   Oracle
	Entries []Entry
}

// Record wraps inner with a fresh Transcript.
func Record(inner Oracle) *Transcript { return &Transcript{inner: inner} }

// Ask implements Oracle.
func (t *Transcript) Ask(s boolean.Set) bool {
	a := t.inner.Ask(s)
	t.mu.Lock()
	t.Entries = append(t.Entries, Entry{Question: s, Answer: a})
	t.mu.Unlock()
	return a
}

// AskBatch implements BatchOracle; the batch's entries are appended
// in question order, regardless of the order the inner oracle
// answered them in.
func (t *Transcript) AskBatch(qs []boolean.Set) []bool {
	answers := AskAll(t.inner, qs)
	t.mu.Lock()
	for i, q := range qs {
		t.Entries = append(t.Entries, Entry{Question: q, Answer: answers[i]})
	}
	t.mu.Unlock()
	return answers
}

// Len reports the number of recorded entries, safe to call while
// learners are still asking.
func (t *Transcript) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.Entries)
}

// Copy returns a snapshot of the recorded entries.
func (t *Transcript) Copy() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Entry{}, t.Entries...)
}

// Noisy wraps an oracle and flips each response independently with
// probability p, simulating the noisy users discussed in §5. The rng
// must not be nil; it is guarded by a mutex (a *rand.Rand is not safe
// for concurrent use), so the wrapper may be shared by concurrent
// askers. For a fixed seed, the flip sequence — and therefore the
// exact set of corrupted answers — is deterministic only under serial
// asking: concurrent Ask calls draw from the rng in scheduling order.
// AskBatch draws its flips in question order after the whole batch is
// answered, so batched runs keep a per-batch deterministic flip
// sequence whatever order the inner oracle answers in.
func Noisy(inner Oracle, p float64, rng *rand.Rand) Oracle {
	return &noisy{inner: inner, p: p, rng: rng}
}

type noisy struct {
	inner Oracle
	p     float64
	mu    sync.Mutex
	rng   *rand.Rand
}

// Ask implements Oracle.
func (n *noisy) Ask(s boolean.Set) bool {
	a := n.inner.Ask(s)
	n.mu.Lock()
	flip := n.rng.Float64() < n.p
	n.mu.Unlock()
	if flip {
		return !a
	}
	return a
}

// AskBatch implements BatchOracle; see Noisy for the flip-sequence
// determinism contract.
func (n *noisy) AskBatch(qs []boolean.Set) []bool {
	answers := AskAll(n.inner, qs)
	n.mu.Lock()
	for i := range answers {
		if n.rng.Float64() < n.p {
			answers[i] = !answers[i]
		}
	}
	n.mu.Unlock()
	return answers
}

// Budget wraps an oracle with a hard cap on the number of questions —
// the interactive patience of a real user. Exceeding the budget
// panics with ErrBudget via BudgetExceeded, which callers recover as
// a signal; tests use it to enforce the paper's question bounds
// mechanically. The cap is enforced under a mutex so a budget of L
// admits exactly L questions even with concurrent askers — never
// more. Read Used only after the askers have returned, or
// through Remaining, which locks.
type Budget struct {
	mu    sync.Mutex
	inner Oracle
	reg   *obs.Registry
	Limit int
	Used  int
}

// ErrBudget is the panic value raised when a Budget is exhausted.
type ErrBudget struct {
	Limit int
}

// Error implements error.
func (e ErrBudget) Error() string {
	return fmt.Sprintf("oracle: question budget of %d exhausted", e.Limit)
}

// WithBudget wraps inner with a question cap. A non-nil registry adds
// shed accounting: every question the exhausted budget refuses
// increments qhorn_oracle_budget_shed_total — the load-shedding signal
// an admission-controlled service watches.
func WithBudget(inner Oracle, limit int, reg *obs.Registry) *Budget {
	return &Budget{inner: inner, Limit: limit, reg: reg}
}

// Ask implements Oracle; it panics with ErrBudget when the cap is
// exceeded. The slot is reserved before the inner oracle is consulted,
// so concurrent asks proceed in parallel while exactly Limit of them
// ever reach the inner oracle.
func (b *Budget) Ask(s boolean.Set) bool {
	b.take(1)
	return b.inner.Ask(s)
}

// AskBatch implements BatchOracle with the serial panic semantics
// intact: when the batch overruns the budget, the questions that fit
// are still asked — exactly what a serial caller would have gotten —
// and then ErrBudget is raised.
func (b *Budget) AskBatch(qs []boolean.Set) []bool {
	b.mu.Lock()
	allowed := b.Limit - b.Used
	if allowed > len(qs) {
		allowed = len(qs)
	}
	b.Used += allowed
	b.mu.Unlock()
	if allowed < len(qs) {
		b.reg.Counter(obs.MetricBudgetSheds).Add(int64(len(qs) - allowed))
		AskAll(b.inner, qs[:allowed])
		panic(ErrBudget{Limit: b.Limit})
	}
	return AskAll(b.inner, qs)
}

// take reserves n question slots or panics with ErrBudget.
func (b *Budget) take(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.Used+n > b.Limit {
		b.reg.Counter(obs.MetricBudgetSheds).Add(int64(n))
		panic(ErrBudget{Limit: b.Limit})
	}
	b.Used += n
}

// Remaining returns the questions left in the budget.
func (b *Budget) Remaining() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Limit - b.Used
}

// Interactive returns an oracle that renders each membership question
// to w in the paper's tuple notation and reads y/n responses from r.
// Malformed input is re-prompted; EOF defaults to non-answer.
func Interactive(u boolean.Universe, r io.Reader, w io.Writer) Oracle {
	br := bufio.NewReader(r)
	return Func(func(s boolean.Set) bool {
		for {
			fmt.Fprintf(w, "Is this object an answer to your query? %s [y/n] ", s.Format(u))
			line, err := br.ReadString('\n')
			line = strings.ToLower(strings.TrimSpace(line))
			switch line {
			case "y", "yes", "answer", "a":
				return true
			case "n", "no", "non-answer", "non":
				return false
			}
			if err != nil {
				fmt.Fprintln(w, "\n(end of input: recording non-answer)")
				return false
			}
			fmt.Fprintln(w, "Please answer y or n.")
		}
	})
}
