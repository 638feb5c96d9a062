// Package qhorn learns and verifies quantified Boolean database
// queries from membership questions, implementing "Learning and
// Verifying Quantified Boolean Queries by Example" (Abouzied,
// Angluin, Papadimitriou, Hellerstein, Silberschatz — PODS 2013).
//
// A qhorn query is a conjunction of quantified Horn expressions over
// the tuples nested inside a data object, written in the paper's
// shorthand:
//
//	∀x1x2 → x3  ∀x4  ∃x5  ∃x1x2x5
//
// Each Boolean variable stands for one simple proposition the user
// wrote about the embedded tuples (the nested sub-package maps
// propositions and data to and from this Boolean domain). Instead of
// making the user write the quantified query, the package asks her
// membership questions — "is this object an answer?" — and
// reconstructs the query exactly:
//
//	u := qhorn.MustUniverse(6)
//	target := qhorn.MustParseQuery(u, "∀x1x4 → x5 ∃x2x3")
//	learned, stats := qhorn.Learn(u, qhorn.TargetOracle(target),
//	    qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
//	fmt.Println(learned, stats.Total()) // equivalent query, #questions
//
// Learn provides two exactly-learnable classes, with the paper's
// complexity guarantees:
//
//   - AlgorithmQhorn1 (the default): qhorn-1 (no variable
//     repetition), O(n lg n) questions (Theorem 3.1);
//   - AlgorithmRolePreserving: role-preserving qhorn (variables
//     repeat but never switch head/body roles), O(n^(θ+1) + k·n·lg n)
//     questions (Theorems 3.5 and 3.8).
//
// Verification answers the converse problem: given a query the user
// wrote herself, BuildVerificationSet generates the O(k) membership
// questions of §4 (families A1–A4, N1–N2, Fig 6) whose
// classifications uniquely pin down the query's semantics; Verify
// runs them against the user and reports any disagreement
// (Theorem 4.2).
package qhorn

import (
	"io"
	"math/rand"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/pac"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	"qhorn/internal/run"
	"qhorn/internal/session"
	"qhorn/internal/verify"
)

// Core Boolean-domain types (see internal/boolean).
type (
	// Universe is a fixed set of n Boolean variables, one per
	// proposition.
	Universe = boolean.Universe
	// Tuple is a true/false assignment to the universe's variables.
	Tuple = boolean.Tuple
	// Set is a set of tuples: an object, and the payload of every
	// membership question.
	Set = boolean.Set
)

// Query-model types (see internal/query).
type (
	// Query is a qhorn query: a conjunction of quantified Horn
	// expressions with implicit guarantee clauses.
	Query = query.Query
	// Expr is one quantified (Horn) expression.
	Expr = query.Expr
	// Quantifier distinguishes ∀ from ∃.
	Quantifier = query.Quantifier
)

// Oracle answers membership questions; it is how the user (real or
// simulated) plugs into the learners and the verifier.
type Oracle = oracle.Oracle

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc = oracle.Func

// Verification types (see internal/verify).
type (
	// VerificationSet is the O(k) question set of §4.
	VerificationSet = verify.Set
	// VerificationQuestion is one question with its expected
	// classification.
	VerificationQuestion = verify.Question
	// VerificationResult reports agreement and disagreements.
	VerificationResult = verify.Result
)

// Quantifiers and the headless-expression marker.
const (
	Forall = query.Forall
	Exists = query.Exists
	NoHead = query.NoHead
)

// NewUniverse returns a universe of n Boolean variables (n ≤ 64).
func NewUniverse(n int) (Universe, error) { return boolean.NewUniverse(n) }

// MustUniverse is NewUniverse for statically known sizes.
func MustUniverse(n int) Universe { return boolean.MustUniverse(n) }

// ParseQuery reads a query in the paper's shorthand notation
// ("∀x1x2 → x3 ∃x4"; ASCII "Ax1x2 -> x3 Ex4" also accepted).
func ParseQuery(u Universe, s string) (Query, error) { return query.Parse(u, s) }

// MustParseQuery is ParseQuery for fixtures and examples.
func MustParseQuery(u Universe, s string) Query { return query.MustParse(u, s) }

// NewQuery builds a validated query from expressions; use the
// constructors UniversalHorn, BodylessUniversal, ExistentialHorn and
// Conjunction.
func NewQuery(u Universe, exprs ...Expr) (Query, error) { return query.New(u, exprs...) }

// UniversalHorn returns ∀ body → head.
func UniversalHorn(body Tuple, head int) Expr { return query.UniversalHorn(body, head) }

// BodylessUniversal returns ∀ head.
func BodylessUniversal(head int) Expr { return query.BodylessUniversal(head) }

// ExistentialHorn returns ∃ body → head.
func ExistentialHorn(body Tuple, head int) Expr { return query.ExistentialHorn(body, head) }

// Conjunction returns the existential conjunction ∃ vars.
func Conjunction(vars Tuple) Expr { return query.Conjunction(vars) }

// Vars builds a tuple from 0-based variable indices.
func Vars(vars ...int) Tuple { return boolean.FromVars(vars...) }

// ParseSet reads an object in the braces notation, e.g. "{110, 011}".
func ParseSet(u Universe, s string) (Set, error) { return boolean.ParseSet(u, s) }

// MustParseSet is ParseSet for fixtures and examples.
func MustParseSet(u Universe, s string) Set { return boolean.MustParseSet(u, s) }

// BuildVerificationSet constructs the O(k) verification questions of
// §4 for a role-preserving query.
func BuildVerificationSet(q Query) (VerificationSet, error) { return verify.Build(q) }

// TargetOracle simulates a user whose intended query is q. Answers
// come from the compiled evaluation kernel (see Compile), which agrees
// with the specification q.Eval on every object.
func TargetOracle(q Query) Oracle { return oracle.Target(q) }

// CompiledQuery is the compiled evaluation form of a Query
// (docs/PERFORMANCE.md): expressions flattened into machine-word
// masks so Eval is a single allocation-free pass over the object, with
// the normal form computed once and cached for Equivalent/Implies.
type CompiledQuery = query.Compiled

// Compile flattens q into its compiled evaluation form. Compile once,
// evaluate many times: the kernel is immutable and safe for concurrent
// use.
func Compile(q Query) *CompiledQuery { return query.Compile(q) }

// NoisyOracle flips each of o's responses with probability p.
func NoisyOracle(o Oracle, p float64, rng *rand.Rand) Oracle { return oracle.Noisy(o, p, rng) }

// CountingOracle wraps o and counts questions and tuples. A non-nil
// registry also receives the counts (qhorn_questions_total and
// friends).
func CountingOracle(o Oracle, reg *MetricsRegistry) *oracle.Counter { return oracle.Count(o, reg) }

// RecordingOracle wraps o and records the full interaction
// transcript.
func RecordingOracle(o Oracle) *oracle.Transcript { return oracle.Record(o) }

// BudgetOracle wraps o and caps the questions reaching it at limit;
// a question past the cap panics with an oracle.ErrBudget. A non-nil
// registry also counts the refused questions
// (qhorn_oracle_budget_shed_total).
func BudgetOracle(o Oracle, limit int, reg *MetricsRegistry) *oracle.Budget {
	return oracle.WithBudget(o, limit, reg)
}

// GenQhorn1 generates a random qhorn-1 query on n variables.
func GenQhorn1(rng *rand.Rand, n int) Query { return query.GenQhorn1(rng, n) }

// GenRolePreserving generates a random role-preserving query.
func GenRolePreserving(rng *rand.Rand, n int, o query.RPOptions) Query {
	return query.GenRolePreserving(rng, n, o)
}

// RPOptions bounds the shape of GenRolePreserving queries.
type RPOptions = query.RPOptions

// Revision (§6 future work): correct a nearly-right query with few
// questions.
type (
	// RevisionResult reports a Revise run.
	RevisionResult = revise.Result
)

// Revise corrects the given role-preserving query to match the user's
// intent: O(k) questions when it is already right, localized repairs
// for small edits, never worse than learning from scratch.
func Revise(given Query, o Oracle) (RevisionResult, error) { return revise.Revise(given, o) }

// QueryDistance is the paper's closeness measure between two
// role-preserving queries: the symmetric difference of their
// distinguishing-tuple sets (§6).
func QueryDistance(a, b Query) int { return revise.Distance(a, b) }

// Session is an oracle with a reviewable, amendable interaction
// history (§5): flip a mistaken response with Amend and re-run the
// learner; answered questions replay for free.
type Session = session.Session

// NewSession wraps the user's oracle with an interaction history.
func NewSession(user Oracle) *Session { return session.New(user) }

// PAC learning (§6 future work): learn approximately from random
// labeled examples instead of chosen membership questions.
type (
	// PACParams bounds the PAC hypothesis search.
	PACParams = pac.Params
	// PACStats reports a PAC learning run.
	PACStats = pac.Stats
	// Sampler draws objects from an example distribution.
	Sampler = pac.Sampler
	// PACExample is one labeled object.
	PACExample = pac.Example
)

// LearnPAC draws m labeled examples and returns the most-specific
// consistent hypothesis.
func LearnPAC(u Universe, o Oracle, s Sampler, m int, p PACParams) (Query, PACStats) {
	return pac.Learn(u, o, s, m, p)
}

// PACError estimates the hypothesis-target disagreement rate over m
// fresh draws.
func PACError(hypothesis, target Query, s Sampler, m int) float64 {
	return pac.Error(hypothesis, target, s, m)
}

// NewBoundarySampler draws objects near the reference query's
// decision boundary, so both labels occur with substantial
// probability.
func NewBoundarySampler(ref Query, rng *rand.Rand, mutations int) *pac.BoundarySampler {
	return pac.NewBoundarySampler(ref, rng, mutations)
}

// Tracing: observe every membership question with its phase and
// purpose, for interfaces that explain themselves to the user.
type (
	// TraceStep is one annotated question.
	TraceStep = learn.Step
	// Tracer observes learner questions; nil is silent.
	Tracer = learn.Tracer
)

// Observability (see docs/OBSERVABILITY.md): hierarchical span
// tracing, a metrics registry with Prometheus text exposition, and
// per-question step tracing, shared by the learners, the verifier and
// the CLIs. Nil hooks are silent, so instrumentation can be threaded
// unconditionally.
type (
	// MetricsRegistry collects counters, gauges and histograms; a nil
	// registry discards everything.
	MetricsRegistry = obs.Registry
	// SpanTracer emits hierarchical spans to its sinks; nil is silent.
	SpanTracer = obs.Tracer
	// Span is one timed region of a run ("learn/rp", "heads", …).
	Span = obs.Span
	// SpanEvent is one point-in-time event within a span.
	SpanEvent = obs.Event
	// SpanSink consumes the span stream (TreeSink, JSONLSink, or a
	// custom consumer such as qhornlearn's -explain printer).
	SpanSink = obs.SpanSink
	// TreeSink collects spans and renders them as an indented tree.
	TreeSink = obs.TreeSink
	// JSONLSink streams spans as JSON lines.
	JSONLSink = obs.JSONLSink
	// FlightRecorder is the bounded always-on span sink behind the
	// observability server's /spans endpoint: every open span plus a
	// ring of the last N completed spans.
	FlightRecorder = obs.FlightRecorder
	// ObsServer serves the live observability plane over HTTP:
	// /metrics, /spans, /progress, /healthz and /debug/pprof.
	ObsServer = obs.Server
	// Instrumentation bundles the optional observability hooks of a
	// learning run; the zero value is silent.
	Instrumentation = learn.Instrumentation
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanTracer returns a tracer emitting to the given sinks.
func NewSpanTracer(sinks ...SpanSink) *SpanTracer { return obs.NewTracer(sinks...) }

// NewTreeSink returns a sink that renders the span tree.
func NewTreeSink() *TreeSink { return obs.NewTreeSink() }

// NewJSONLSink returns a sink streaming spans as JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// NewFlightRecorder returns a flight recorder keeping the last n
// completed spans; n <= 0 selects the default capacity.
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }

// NewObsServer returns a live observability server over the given
// registry, tracer and flight recorder; any nil piece is created
// fresh. Instrument runs with the server's registry and tracer (or
// the WithObsServer engine option) and Start it to watch them live.
func NewObsServer(reg *MetricsRegistry, tracer *SpanTracer, flight *FlightRecorder) *ObsServer {
	return obs.NewServer(reg, tracer, flight)
}

// BatchOracle is an Oracle that can answer a slice of independent
// questions at once. Under WithBatch the learners and the verifier
// surface their independent question sets as batches (docs/ENGINE.md):
// exactly the serial questions, exactly the serial counts, one round
// trip per batch when the user can take a whole set at once.
type BatchOracle = oracle.BatchOracle

// AskAll answers every question through o — as one batch when o is a
// BatchOracle, serially otherwise.
func AskAll(o Oracle, qs []Set) []bool { return oracle.AskAll(o, qs) }

// EstimateQhorn1 bounds the number of questions a qhorn-1 learning
// session may take on n propositions (Theorem 3.1 with measured
// constants) — the number an interface shows before starting.
func EstimateQhorn1(n int) int { return learn.EstimateQhorn1(n) }

// EstimateRolePreserving bounds the questions for a role-preserving
// session with the given shape (heads, causal density θ, expression
// count k).
func EstimateRolePreserving(n, heads, theta, k int) int {
	return learn.EstimateRolePreserving(n, heads, theta, k)
}

// VerificationReport is the serializable rendering of a verification
// set for query interfaces (kind, expectation, label, tuples per
// question).
type VerificationReport = verify.Report

// Classify reports which learnable subclasses q belongs to, with a
// diagnostic per violated restriction (§6's class-verification
// direction); it is also available as the Query method q.Classify().
func Classify(q Query) query.ClassReport { return q.Classify() }

// ClassReport is the result of Classify.
type ClassReport = query.ClassReport

// The composable run engine (docs/ENGINE.md): Learn and Verify are
// the option-driven entry points. One call site composes the
// algorithm, the observability hooks and the batching strategy; a
// budget, a noisy user or a transcript is an oracle wrapped around the
// user's (BudgetOracle, NoisyOracle, RecordingOracle):
//
//	q, stats := qhorn.Learn(u, user,
//	    qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving),
//	    qhorn.WithBatch(),
//	    qhorn.WithInstrumentation(ins))
type (
	// RunOption configures one dimension of a learning or
	// verification run.
	RunOption = run.Option
	// RunStats is the engine's unified per-phase question counts; the
	// qhorn-1 body phase and the role-preserving universal phase both
	// land in BodyQuestions.
	RunStats = run.Stats
	// Algorithm selects the learning algorithm of a run.
	Algorithm = run.Algorithm
	// Ablations disables individual role-preserving optimizations.
	Ablations = learn.Ablations
)

// The two exactly-learnable classes, as engine algorithms.
const (
	// AlgorithmQhorn1 learns qhorn-1 queries (§3.1).
	AlgorithmQhorn1 = run.Qhorn1
	// AlgorithmRolePreserving learns role-preserving qhorn queries
	// (§3.2).
	AlgorithmRolePreserving = run.RolePreserving
)

// ParseAlgorithm reads the CLI spelling of an algorithm ("qhorn1" or
// "rp").
func ParseAlgorithm(s string) (Algorithm, error) { return run.ParseAlgorithm(s) }

// Learn learns a query exactly under the given engine options
// (default: qhorn-1, serial, silent).
func Learn(u Universe, o Oracle, opts ...RunOption) (Query, RunStats) {
	return learn.Run(u, o, opts...)
}

// Verify asks the user every verification question of q and reports
// whether she agrees with q's classifications (Theorem 4.2: any
// semantic difference from her intended query surfaces here). The
// engine options select batching, instrumentation and early stopping
// (default: serial, silent, full set).
func Verify(q Query, o Oracle, opts ...RunOption) (VerificationResult, error) {
	return verify.Run(q, o, opts...)
}

// WithAlgorithm selects the learning algorithm.
func WithAlgorithm(a Algorithm) RunOption { return run.WithAlgorithm(a) }

// WithNaiveSearch selects the qhorn-1 one-question-per-variable
// baseline of §3.1.2.
func WithNaiveSearch() RunOption { return run.WithNaiveSearch() }

// WithAblations disables selected role-preserving optimizations.
func WithAblations(ab Ablations) RunOption { return run.WithAblations(ab) }

// WithSteps adds a per-question step tracer to the run.
func WithSteps(t Tracer) RunOption { return run.WithSteps(t) }

// WithInstrumentation overlays the non-nil hooks of ins onto the
// run's instrumentation.
func WithInstrumentation(ins Instrumentation) RunOption { return run.WithInstrumentation(ins) }

// WithObsServer instruments the run with a live observability
// server's registry and span tracer, so its metrics, spans and
// progress are visible at the server's endpoints while the run is in
// flight. A nil server is a no-op.
func WithObsServer(s *ObsServer) RunOption { return run.WithObsServer(s) }

// WithBatch selects the batch question structure — bring your own
// BatchOracle, or accept serial degradation.
func WithBatch() RunOption { return run.WithBatch() }

// WithFirstDisagreement stops a verification run at the first
// disagreement.
func WithFirstDisagreement() RunOption { return run.WithFirstDisagreement() }
