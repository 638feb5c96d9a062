// Package obs is the unified observability layer of the repository:
// hierarchical span tracing, a metrics registry with Prometheus text
// exposition, and profiling hooks — all over the standard library
// only.
//
// Every theorem the repository reproduces is a claim about observable
// cost: questions asked, tuples per question, lattice nodes explored
// (Theorems 3.1, 3.5, 3.8, 4.2). This package is the single substrate
// through which the learners (internal/learn), the verifier
// (internal/verify), the oracles (internal/oracle) and the experiment
// harness (internal/exp) report that cost, and through which the CLIs
// expose it (-trace, -trace-out, -metrics, -profile).
//
// The span vocabulary mirrors the paper's algorithm structure: a
// learning run is a root span ("learn/qhorn1", "learn/rp") with one
// child per phase ("heads", "bodies", "existential") and grandchildren
// for the subroutines ("find", "findall", "gethead", "lattice-search",
// "prune"); a verification run is a root span ("verify") with one
// child per question family ("verify/A1" … "verify/N2"). Each
// membership question is an event on the innermost open span.
//
// Everything is nil-safe: a nil *Tracer yields nil *Spans whose
// methods no-op, and a nil *Registry hands out discard metrics, so
// instrumented code needs no "is observability on?" branches.
package obs

import "fmt"

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Af builds an Attr with a formatted value.
func Af(key, format string, args ...interface{}) Attr {
	return Attr{Key: key, Value: fmt.Sprintf(format, args...)}
}

// Names of the metrics the instrumented packages maintain. Exposed as
// constants so CLIs, tests and dashboards agree on spelling.
const (
	// MetricQuestions counts membership questions at the oracle
	// boundary (oracle.Count); it is the paper's primary cost.
	MetricQuestions = "qhorn_questions_total"
	// MetricTuples counts tuples across all questions.
	MetricTuples = "qhorn_tuples_total"
	// MetricTuplesPerQuestion is the distribution of tuples per
	// question (Lemma 3.4 bounds cost when this is constant).
	MetricTuplesPerQuestion = "qhorn_tuples_per_question"
	// MetricOracleAskSeconds is the distribution of per-question oracle
	// answer latency in seconds, timed at the counting adapter
	// (oracle.Count). Only serial asks are timed: batched questions
	// are counted but not timed per ask, since the inner oracle
	// answers a batch as one call.
	MetricOracleAskSeconds = "qhorn_oracle_ask_seconds"
	// MetricQuestionsByPhase counts questions per algorithm phase
	// (label "phase": heads, bodies, existential).
	MetricQuestionsByPhase = "qhorn_questions_by_phase_total"
	// MetricLatticeVisited counts lattice nodes the role-preserving
	// learner actually explored.
	MetricLatticeVisited = "qhorn_lattice_nodes_visited_total"
	// MetricLatticePruned counts lattice nodes skipped by dominance
	// or violation pruning.
	MetricLatticePruned = "qhorn_lattice_nodes_pruned_total"
	// MetricVerifyQuestions counts verification questions per family
	// (label "kind": A1…A4, N1, N2).
	MetricVerifyQuestions = "qhorn_verify_questions_total"
	// MetricVerifyDisagreements counts verification disagreements.
	MetricVerifyDisagreements = "qhorn_verify_disagreements_total"
	// MetricExperiments counts experiment-harness runs.
	MetricExperiments = "qhorn_experiments_total"
	// MetricFuzzCases counts differential-fuzz cases checked (label
	// "class": qhorn1, rp, verify).
	MetricFuzzCases = "qhorn_fuzz_cases_total"
	// MetricFuzzDisagreements counts differential-fuzz disagreements
	// (label "kind": the difffuzz.Kind that fired).
	MetricFuzzDisagreements = "qhorn_fuzz_disagreements_total"
	// MetricBudgetSheds counts questions refused by an exhausted Budget
	// — the load-shedding signal of an admission-controlled service.
	MetricBudgetSheds = "qhorn_oracle_budget_shed_total"
	// MetricPhaseSeconds is the distribution of per-phase wall time:
	// one observation per phase/subroutine span of a learning run
	// (label "phase": learn/qhorn1, heads, find, lattice-search, …) and
	// per question family of a verification run (verify, verify/A1 …).
	MetricPhaseSeconds = "qhorn_phase_seconds"
	// MetricBruteBuildSeconds is the distribution of brute answer-
	// matrix build wall time (brute.NewMatrix).
	MetricBruteBuildSeconds = "qhorn_brute_matrix_build_seconds"
	// MetricBruteLearnSeconds is the distribution of per-learn wall
	// time through the brute answer matrix (brute.Matrix.Learn).
	MetricBruteLearnSeconds = "qhorn_brute_learn_seconds"
	// MetricServeSessionsActive gauges the live learn/verify sessions
	// of a qhornd server: sessions whose learner run has not finished
	// (it is parked awaiting remote answers between requests).
	MetricServeSessionsActive = "qhornd_sessions_active"
	// MetricServeQuestionsOutstanding gauges membership questions
	// posted to remote answerers and not yet answered, summed across
	// every session of the server.
	MetricServeQuestionsOutstanding = "qhornd_questions_outstanding"
	// MetricServeAnswerSeconds is the distribution of remote answer
	// latency: time from a question entering a session's outstanding
	// batch to its answer arriving over POST /sessions/{id}/answers.
	MetricServeAnswerSeconds = "qhornd_answer_latency_seconds"
	// MetricServeSessions counts finished qhornd session runs by
	// outcome (label "outcome": done, budget, aborted, panic).
	MetricServeSessions = "qhornd_sessions_total"
	// MetricServeRejected counts session creations the admission gate
	// refused with HTTP 429 (server at max-sessions capacity).
	MetricServeRejected = "qhornd_admission_rejected_total"
	// MetricMemoTierHits counts questions the shared cross-session
	// memo tier (oracle.SharedMemo) answered from its cache.
	MetricMemoTierHits = "qhornd_memo_hits_total"
	// MetricMemoTierMisses counts questions the shared memo tier
	// forwarded to an inner oracle and obtained an answer for. A
	// question whose inner oracle panicked (budget, abort) is not a
	// miss — no answer was obtained.
	MetricMemoTierMisses = "qhornd_memo_misses_total"
	// MetricMemoTierEvictions counts cached answers the shared memo
	// tier discarded, oldest first, to stay within its capacity.
	MetricMemoTierEvictions = "qhornd_memo_evictions_total"
	// MetricMemoTierSize gauges the answers currently cached by the
	// shared memo tier, across all identities.
	MetricMemoTierSize = "qhornd_memo_size"
	// MetricServeHTTPSeconds is the distribution of qhornd HTTP handler
	// wall time, labeled by route (label "route": create, list, info,
	// delete, questions, answers, history, snapshot, amend, obs). The
	// learner computes inside the create, answers and amend handlers,
	// so its steps count toward those routes.
	MetricServeHTTPSeconds = "qhornd_http_seconds"
	// MetricServeHTTPInFlight gauges HTTP requests currently inside a
	// qhornd handler, learner steps included.
	MetricServeHTTPInFlight = "qhornd_http_in_flight"
)

// AnswerLatencyBuckets are the fixed histogram buckets for
// MetricServeAnswerSeconds: remote human answers arrive in seconds to
// minutes, simulated answerers in microseconds.
var AnswerLatencyBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 300, 1800}

// TuplesPerQuestionBuckets are the fixed histogram buckets for
// MetricTuplesPerQuestion: question payloads are small (most questions
// carry O(1)–O(n) tuples on n ≤ 64 variables).
var TuplesPerQuestionBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// LatencyBuckets are the fixed histogram buckets for
// MetricOracleAskSeconds, MetricPhaseSeconds and the other wall-time
// distributions, from microseconds (simulated oracles) to seconds
// (interactive users).
var LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60}

// HTTPLatencyBuckets are the fixed histogram buckets for
// MetricServeHTTPSeconds: sub-millisecond for the pooled hot routes,
// stretching to tens of seconds for slow clients and long learner
// steps.
var HTTPLatencyBuckets = []float64{1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 0.05, 0.1, 0.5, 1, 5, 30}
