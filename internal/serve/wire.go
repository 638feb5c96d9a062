package serve

import "encoding/json"

// Wire types of the qhornd session API (docs/SERVICE.md). Tuples
// travel in the paper's fixed-width notation ("0110", leftmost x1);
// questions are keyed by the canonical boolean.Set.Key, which is also
// the answer key, so answers may arrive out of order and across
// batches without ambiguity.

// CreateRequest is the body of POST /sessions.
type CreateRequest struct {
	// Variables sizes the universe (ignored when resuming: the
	// snapshot's history records it).
	Variables int `json:"variables,omitempty"`
	// Algorithm is "qhorn1" (default) or "rp".
	Algorithm string `json:"algorithm,omitempty"`
	// Mode is "learn" (default) or "verify".
	Mode string `json:"mode,omitempty"`
	// Given is the query under verification (verify mode), in the
	// paper's shorthand ("Ax1x2 -> x3 Ex4").
	Given string `json:"given,omitempty"`
	// Budget caps the live questions of the session: 0 takes the
	// server default, negative is unlimited.
	Budget int `json:"budget,omitempty"`
	// User is the oracle identity of the answering user. Sessions of
	// the same user share the server's cross-session memo tier —
	// questions one session settled are answered from the cache in
	// later sessions — while distinct users never share answers.
	// Empty opts the session out of the tier; longer than 256 bytes
	// is a 400.
	User string `json:"user,omitempty"`
	// Snapshot resumes a persisted session instead of starting fresh;
	// every other field is taken from the snapshot.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

// Snapshot is the persisted form of a session: enough to resume the
// run on any qhornd after a crash or a client-side save. History is
// the session.EncodeJSON payload; recorded answers replay for free on
// resume, and only the batch that was in flight at snapshot time is
// re-asked.
type Snapshot struct {
	Version   int             `json:"qhornd_snapshot"`
	Mode      string          `json:"mode"`
	Algorithm string          `json:"algorithm"`
	Given     string          `json:"given,omitempty"`
	Budget    int             `json:"budget"` // remaining at snapshot; -1 unlimited
	User      string          `json:"user,omitempty"`
	History   json.RawMessage `json:"history"`
}

// SessionInfo is the state document of GET /sessions/{id}.
type SessionInfo struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Mode      string `json:"mode"`
	Algorithm string `json:"algorithm"`
	Variables int    `json:"variables"`
	Given     string `json:"given,omitempty"`
	User      string `json:"user,omitempty"`
	// Runs counts learner launches: 1, plus one per amend relaunch.
	Runs int `json:"runs"`
	// Outstanding is the number of unanswered questions of the
	// current batch.
	Outstanding int `json:"outstanding"`
	// QuestionsOnRecord is the interaction-history length;
	// LiveQuestions counts the ones the current run asked over the
	// wire (replays after amend/resume are free).
	QuestionsOnRecord int  `json:"questions_on_record"`
	LiveQuestions     int  `json:"live_questions"`
	BudgetRemaining   *int `json:"budget_remaining,omitempty"`
	// Learned is the learned query in the paper's shorthand (learn
	// mode, state done).
	Learned string      `json:"learned,omitempty"`
	Stats   *StatsInfo  `json:"stats,omitempty"`
	Verify  *VerifyInfo `json:"verify,omitempty"`
	// Revision reports the last run's revision fast path, when an
	// amendment was repaired through internal/revise instead of a full
	// relearn.
	Revision *RevisionInfo `json:"revision,omitempty"`
	// Error describes why a failed session failed.
	Error string `json:"error,omitempty"`
}

// RevisionInfo is the question breakdown of an amend run that took
// the revision fast path: verification passes plus targeted repair of
// the damaged sub-lattice, escalating to a full relearn only when the
// damage attribution under-approximated.
type RevisionInfo struct {
	VerificationQuestions int  `json:"verification_questions"`
	RepairQuestions       int  `json:"repair_questions"`
	Escalated             bool `json:"escalated"`
}

// StatsInfo is the per-phase question breakdown of a finished learning
// run (run.Stats).
type StatsInfo struct {
	HeadQuestions        int `json:"head_questions"`
	BodyQuestions        int `json:"body_questions"`
	ExistentialQuestions int `json:"existential_questions"`
	Total                int `json:"total"`
}

// VerifyInfo is the verdict of a finished verification run.
type VerifyInfo struct {
	Correct        bool           `json:"correct"`
	QuestionsAsked int            `json:"questions_asked"`
	Disagreements  []WireQuestion `json:"disagreements,omitempty"`
}

// WireQuestion is one membership question on the wire.
type WireQuestion struct {
	// Key is the canonical boolean.Set.Key — the answer key.
	Key string `json:"key"`
	// Tuples are the question's tuples in fixed-width notation.
	Tuples []string `json:"tuples"`
}

// QuestionBatch is the body of GET /sessions/{id}/questions: the
// outstanding questions, or an empty list when the session is
// computing or finished.
type QuestionBatch struct {
	State     string         `json:"state"`
	Questions []WireQuestion `json:"questions"`
}

// AnswerRequest is the body of POST /sessions/{id}/answers: answers
// keyed by question key, in any order, possibly partial. The empty-set
// question's key is "". Any other field is rejected with 400. A key
// given twice, in one "answers" object or across repeated "answers"
// fields, takes its last value, as encoding/json decodes it.
type AnswerRequest struct {
	Answers map[string]bool `json:"answers,omitempty"`
}

// AnswerReport is the response to an answer delivery. Duplicate
// answers (repeats of any question on the session's record, or of one
// already answered in the outstanding batch) are counted, not errors,
// so at-least-once clients are safe; unknown keys are listed. When the
// session died (deleted, server shutdown), AbortReason says so —
// otherwise a delivery racing an abort would report legitimately
// in-flight answers as Unknown with no signal the batch is gone.
type AnswerReport struct {
	Accepted    int      `json:"accepted"`
	Duplicate   int      `json:"duplicate"`
	Unknown     []string `json:"unknown,omitempty"`
	Outstanding int      `json:"outstanding"`
	State       string   `json:"state"`
	AbortReason string   `json:"abort_reason,omitempty"`
	// Next is the fused-mode payload: POST /answers?wait=D responds
	// with the outstanding batch that follows the delivery (the next
	// batch once this one settles) in the same round trip, halving the
	// per-batch HTTP cost of a drive loop. Absent without ?wait.
	Next *QuestionBatch `json:"next,omitempty"`
}

// HistoryEntry is one recorded question of GET /sessions/{id}/history.
type HistoryEntry struct {
	Index   int      `json:"index"`
	Tuples  []string `json:"tuples"`
	Answer  bool     `json:"answer"`
	Amended bool     `json:"amended,omitempty"`
}

// AmendRequest is the body of POST /sessions/{id}/amend: flip the
// recorded answer at Index (history order) or with the given Key,
// then rerun over the corrected history: through the revision fast
// path when the session is eligible (a learn session of the
// role-preserving algorithm with a prior learned query), else a full
// relearn.
type AmendRequest struct {
	Index *int   `json:"index,omitempty"`
	Key   string `json:"key,omitempty"`
}

// SessionList is the body of GET /sessions.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
