// Package run is the composable run engine shared by the learners and
// the verifier (docs/ENGINE.md). The paper's algorithms (Alg 1–8,
// Fig 6) are single procedures; the cross-cutting dimensions a session
// may add — naive search baselines, ablations, step/span/metric
// instrumentation, batched questioning, question counting — are not
// new algorithms but configuration of the same run. This package
// holds that configuration:
//
//   - Config is the composed run configuration; Option mutates it.
//     learn.Run and verify.Run accept Options and construct their
//     single core path from the resulting Config.
//   - Assemble wraps the run's oracle in the question counter
//     WithCounter asks for. Everything else that changes what the user
//     sees — a question budget, a noisy user, a transcript, per-run
//     dedup — is an oracle the caller wraps before the run
//     (oracle.WithBudget, oracle.Noisy, oracle.Record,
//     session.Session), so the caller keeps the handle it reads back.
//   - Instrumentation, Step, Tracer and Ablations are the shared
//     cross-cutting types; internal/learn and internal/verify alias
//     them so one instrumentation value threads through both.
//   - FromFlags translates the session the shared CLI flag bundle
//     (obs.Flags) started into Options, so every CLI builds its run
//     config the same way.
//
// Adding a new dimension of the run itself means one new Option here,
// not a new exported function per learner and verifier variant.
package run

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
)

// Algorithm selects the learning algorithm of a run.
type Algorithm int

// The two exactly-learnable classes of the paper.
const (
	// Qhorn1 learns qhorn-1 queries with O(n lg n) questions (§3.1).
	Qhorn1 Algorithm = iota
	// RolePreserving learns role-preserving qhorn queries with
	// O(n^(θ+1) + k·n·lg n) questions (§3.2).
	RolePreserving
)

// String returns the CLI spelling of the algorithm.
func (a Algorithm) String() string {
	if a == RolePreserving {
		return "rp"
	}
	return "qhorn1"
}

// ParseAlgorithm reads the CLI spelling of an algorithm ("qhorn1" or
// "rp"; "role-preserving" is accepted as an alias).
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "qhorn1":
		return Qhorn1, nil
	case "rp", "role-preserving":
		return RolePreserving, nil
	}
	return Qhorn1, fmt.Errorf("unknown class %q (want qhorn1 or rp)", s)
}

// Step describes one membership question at the moment it is asked:
// which phase of the algorithm produced it, what it is for in plain
// words, and how the user answered. Interactive interfaces show the
// purpose next to the example so the user understands why she is
// being asked — the "human-like interaction" the paper's introduction
// motivates.
type Step struct {
	// Phase is the algorithm phase: "heads", "bodies", "existential",
	// or "verify/<kind>" for verification questions.
	Phase string
	// Purpose explains the question, e.g. "is x3 a universal head
	// variable?".
	Purpose string
	// Question is the membership question asked.
	Question boolean.Set
	// Answer is the user's response.
	Answer bool
}

// Tracer observes run questions as they are asked. A nil Tracer is
// silent. Tracer is the step-level view; Instrumentation carries it
// alongside span tracing and metrics.
type Tracer func(Step)

// Instrumentation bundles the observability hooks a run may carry.
// Every field is optional; the zero value is completely silent and
// costs nothing on the question path. The learners and the verifier
// share this one type (learn.Instrumentation and
// verify.Instrumentation alias it).
type Instrumentation struct {
	// Steps receives one annotated Step per membership question —
	// the self-explaining interface of the paper's introduction.
	Steps Tracer
	// Spans receives the hierarchical span stream: one root span per
	// run ("learn/qhorn1", "learn/rp", "verify"), one child per phase
	// or question family, and grandchildren for the subroutines, with
	// one "question" event per membership question.
	Spans *obs.Tracer
	// Metrics receives the counters of the paper's cost model:
	// questions by phase, verification questions by kind, and lattice
	// nodes visited/pruned.
	Metrics *obs.Registry
}

// merge overlays the non-nil hooks of other onto in, so WithSteps and
// WithInstrumentation compose in either order.
func (in Instrumentation) merge(other Instrumentation) Instrumentation {
	if other.Steps != nil {
		in.Steps = other.Steps
	}
	if other.Spans != nil {
		in.Spans = other.Spans
	}
	if other.Metrics != nil {
		in.Metrics = other.Metrics
	}
	return in
}

// Ablations disables individual optimizations of the role-preserving
// learner so their contribution can be measured (experiment E16).
// Both settings preserve exactness; they only cost questions.
type Ablations struct {
	// NoGuaranteeSeeds skips pre-seeding the discovered set with the
	// guarantee-clause distinguishing tuples (the paper's "do not
	// search the downset" optimization of §3.2.2); the lattice
	// descent then rediscovers every guarantee clause from the top.
	NoGuaranteeSeeds bool
	// SerialPrune replaces the binary-search pruning of Algorithm 8
	// with the remove-one-tuple-at-a-time strategy the paper
	// describes first ("we asked O(n) questions to determine which
	// tuples to safely prune; we can do better").
	SerialPrune bool
}

// Stats reports the per-phase question counts of an engine learning
// run, unified across algorithms: the qhorn-1 learner's body phase and
// the role-preserving learner's universal phase both land in
// BodyQuestions.
type Stats struct {
	HeadQuestions        int
	BodyQuestions        int
	ExistentialQuestions int
}

// Total returns the total number of membership questions asked.
func (s Stats) Total() int {
	return s.HeadQuestions + s.BodyQuestions + s.ExistentialQuestions
}

// Config is the composed configuration of one run. Build it with New
// and Options; learn.Run and verify.Run construct their core paths
// from it, over the oracle Assemble returns.
type Config struct {
	// Algorithm selects the learner (ignored by verify runs).
	Algorithm Algorithm
	// Naive switches the qhorn-1 variable searches to the
	// one-question-per-variable baseline of §3.1.2.
	Naive bool
	// Ablations disables role-preserving optimizations (E16).
	Ablations Ablations
	// Ins carries the observability hooks; the zero value is silent.
	Ins Instrumentation
	// Batch surfaces independent question sets as oracle.AskAll
	// batches. The questions and per-phase counts are identical to
	// the serial run; a BatchOracle receives each set in one call.
	Batch bool
	// Count wraps the run's oracle in a Counter mirroring into
	// Ins.Metrics (qhorn_questions_total and friends).
	Count bool
	// FirstOnly stops a verify run at the first disagreement
	// (ignored by learning runs).
	FirstOnly bool
}

// Option mutates one dimension of a run's Config.
type Option func(*Config)

// New composes options into a Config.
func New(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithAlgorithm selects the learning algorithm.
func WithAlgorithm(a Algorithm) Option {
	return func(c *Config) { c.Algorithm = a }
}

// WithNaiveSearch selects the serial one-question-per-variable
// baseline of §3.1.2 for the qhorn-1 learner.
func WithNaiveSearch() Option {
	return func(c *Config) { c.Naive = true }
}

// WithAblations disables selected role-preserving optimizations.
func WithAblations(ab Ablations) Option {
	return func(c *Config) { c.Ablations = ab }
}

// WithSteps adds a per-question step tracer to the run.
func WithSteps(t Tracer) Option {
	return func(c *Config) { c.Ins = c.Ins.merge(Instrumentation{Steps: t}) }
}

// WithInstrumentation overlays the non-nil hooks of ins onto the run's
// instrumentation.
func WithInstrumentation(ins Instrumentation) Option {
	return func(c *Config) { c.Ins = c.Ins.merge(ins) }
}

// WithBatch selects the batch question structure: the caller brings
// its own BatchOracle, or accepts the serial degradation of
// oracle.AskAll. Questions and counts are identical to the serial run
// either way.
func WithBatch() Option {
	return func(c *Config) { c.Batch = true }
}

// WithCounter counts every question the run asks, mirroring into the
// run's metrics registry when one is configured.
func WithCounter() Option {
	return func(c *Config) { c.Count = true }
}

// WithFirstDisagreement stops a verify run at the first disagreement
// instead of running the full set.
func WithFirstDisagreement() Option {
	return func(c *Config) { c.FirstOnly = true }
}

// WithObsServer instruments the run with a live observability server's
// registry and span tracer, so the run's metrics appear at the server's
// /metrics and its spans in the flight recorder behind /spans and
// /progress. A nil server is a no-op, so callers may pass an optional
// server through unconditionally.
func WithObsServer(s *obs.Server) Option {
	if s == nil {
		return nil
	}
	return func(c *Config) {
		c.Ins = c.Ins.merge(Instrumentation{Spans: s.SpanTracer(), Metrics: s.Registry()})
	}
}

// Assemble returns the oracle a run asks: the user's oracle, wrapped
// in a Counter mirroring into Ins.Metrics when the Config counts
// questions, and untouched otherwise.
func (c Config) Assemble(user oracle.Oracle) oracle.Oracle {
	if c.Count {
		return oracle.Count(user, c.Ins.Metrics)
	}
	return user
}

// FromFlags translates the observability session the shared CLI flag
// bundle (obs.Flags) started into engine options: span/metric
// instrumentation from the session and a question counter feeding the
// metrics registry. Every CLI that drives a learner or the verifier
// builds its run config through this one helper.
func FromFlags(s *obs.Session) []Option {
	return []Option{
		WithInstrumentation(Instrumentation{Spans: s.Tracer, Metrics: s.Metrics}),
		WithCounter(),
	}
}
