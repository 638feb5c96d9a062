package serve

// This file is the per-session state machine of the qhornd server: a
// resumable learn/verify run whose oracle is the network. A learner
// goroutine runs the ordinary engine (learn.Run / verify.Set.RunWith
// with run.WithBatch) over an interaction-history Session
// (internal/session); at the bottom of that stack sits the answer
// exchange, an oracle.BatchOracle whose AskBatch publishes the batch
// as the session's outstanding questions and blocks until remote
// answers — arriving out of order over POST /sessions/{id}/answers,
// keyed by canonical boolean.Set.Key — have settled every one of
// them. Control is fully inverted: the algorithm drives the question
// stream exactly as it would against a local user, and HTTP handlers
// only deliver answers and observe state.
//
// States:
//
//	learning          the learner goroutine is computing; no
//	                  outstanding questions
//	awaiting-answers  an outstanding batch is published; the learner
//	                  is blocked in the exchange
//	done              the run finished; the learned query (or the
//	                  verification verdict) is available
//	failed            the run aborted: question budget exhausted,
//	                  session deleted, or server shutdown
//
// done is not terminal: POST /sessions/{id}/amend flips a recorded
// answer and relaunches the learner over the corrected history — the
// paper's §5 revision loop — replaying settled questions for free.

import (
	"fmt"
	"sync"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	"qhorn/internal/run"
	qsession "qhorn/internal/session"
	"qhorn/internal/verify"
)

// Session states, as reported by the wire SessionInfo.State.
const (
	StateLearning = "learning"
	StateAwaiting = "awaiting-answers"
	StateDone     = "done"
	StateFailed   = "failed"
)

// Session modes.
const (
	ModeLearn  = "learn"
	ModeVerify = "verify"
)

// abortError is the panic value the exchange raises into a learner
// whose session was deleted or whose server is shutting down.
type abortError struct{ reason string }

func (e abortError) Error() string { return "serve: session aborted: " + e.reason }

// pendingQ is one outstanding question of the current batch. The
// session reuses its pqs slice across rounds, so entries (and their
// tuples slices) are recycled rather than reallocated per question.
type pendingQ struct {
	key      string
	q        boolean.Set
	tuples   []string // fixed-width wire rendering, formatted once at publish
	posted   time.Time
	answered bool
	answer   bool
}

// session is one live learn/verify session. All mutable state is
// guarded by mu; the learner goroutine only touches it through the
// exchange (AskBatch) and the terminal transition in run.
type session struct {
	id  string
	srv *Server

	mode      string
	alg       run.Algorithm
	u         boolean.Universe
	givenStr  string
	user      string     // oracle identity in the shared memo tier; "" detached
	vs        verify.Set // verify mode: the prebuilt verification set
	budget    *oracle.Budget
	budgetCap int // -1 unlimited, else the admitted live-question cap

	mu          sync.Mutex
	state       string
	stateSeq    chan struct{} // closed and replaced on every state change
	running     bool
	aborted     bool
	abortReason string

	// hist is the learner's interaction history. The learner goroutine
	// mutates it OUTSIDE mu (inside qsession recording, between
	// exchange calls), so handlers never read hist while the learner is
	// computing; they read the histEntries/histLive cache, captured
	// under mu at the quiescent points (batch publication, run
	// termination, amend). histEntries is a hist.View: the learner only
	// appends beyond it, and amend flips answers under mu while no run
	// is active.
	hist        *qsession.Session
	histEntries []qsession.Entry
	histLive    int
	pending     map[string]int32 // key → index into pqs
	pqs         []pendingQ       // current batch in posted order, reused across rounds
	remaining   int
	waiting     bool          // a batch is blocked on wake
	wake        chan struct{} // cap 1; one token when the batch settles or aborts
	settled     map[string]bool

	runs        int
	haveLearned bool
	learned     query.Query
	stats       run.Stats
	statsKnown  bool         // stats came from a full learn; false after a revise run
	reviseFrom  *query.Query // amend set it: revise this query instead of relearning
	revision    *RevisionInfo
	verdict     *verify.Result
	failure     string
}

// newSession builds an unlaunched session; the caller inserts it into
// the session table and calls launch. history, when non-nil, is a snapshot's
// session.EncodeJSON payload to resume from; otherwise variables
// sizes a fresh universe.
func newSession(srv *Server, id, mode string, alg run.Algorithm, variables int, givenStr string, budgetCap int, userID string, history []byte) (*session, error) {
	s := &session{
		id:        srv.nextID(id),
		srv:       srv,
		mode:      mode,
		alg:       alg,
		givenStr:  givenStr,
		user:      userID,
		budgetCap: budgetCap,
		state:     StateLearning,
		stateSeq:  make(chan struct{}),
		wake:      make(chan struct{}, 1),
		pending:   map[string]int32{},
		settled:   map[string]bool{},
	}
	// The oracle under the interaction history, innermost first:
	// exchange (the wire) → budget → shared memo tier. The tier sits
	// above the budget so questions another session of this user
	// already settled cost this session nothing; with a cold tier it
	// forwards every batch unchanged, so question sequences stay
	// bit-identical to a direct learn.Run.
	var user oracle.Oracle = exchange{s}
	if budgetCap > 0 {
		s.budget = oracle.WithBudget(user, budgetCap, srv.reg)
		user = s.budget
	}
	if userID != "" {
		user = srv.memo.Oracle(userID, user)
	}
	if history != nil {
		hist, u, err := qsession.DecodeJSON(history, user)
		if err != nil {
			return nil, fmt.Errorf("serve: resume: %w", err)
		}
		s.hist, s.u = hist, u
		for _, e := range hist.View() {
			s.settled[e.Question.Key()] = true
		}
	} else {
		u, err := boolean.NewUniverse(variables)
		if err != nil {
			return nil, err
		}
		if variables == 0 {
			return nil, fmt.Errorf("serve: a session needs at least one variable")
		}
		s.hist, s.u = qsession.New(user), u
	}
	if mode == ModeVerify {
		given, err := query.Parse(s.u, givenStr)
		if err != nil {
			return nil, fmt.Errorf("serve: given query: %w", err)
		}
		vs, err := verify.Build(given)
		if err != nil {
			return nil, fmt.Errorf("serve: given query: %w", err)
		}
		s.vs = vs
	}
	s.captureHistoryLocked() // not yet shared: no lock needed
	return s, nil
}

// captureHistoryLocked refreshes the handler-facing history cache.
// Called under s.mu at the points where hist is quiescent: when the
// exchange publishes a batch (the learner, the only mutator, is about
// to block), when the run terminates, and after an amendment.
func (s *session) captureHistoryLocked() {
	s.histEntries = s.hist.View()
	s.histLive = s.hist.LiveQuestions
}

// launch starts a learner run; the caller must have admitted the
// session (Server.admit) and hold no locks.
func (s *session) launch() {
	s.mu.Lock()
	s.running = true
	s.aborted = false
	s.runs++
	s.haveLearned = false
	s.statsKnown = false
	s.revision = nil
	s.verdict = nil
	s.failure = ""
	s.setStateLocked(StateLearning)
	s.mu.Unlock()
	s.srv.wg.Add(1)
	go s.run()
}

// setStateLocked transitions the state and wakes every long-poller.
// Callers hold s.mu.
func (s *session) setStateLocked(state string) {
	s.state = state
	close(s.stateSeq)
	s.stateSeq = make(chan struct{})
}

// run is the learner goroutine: one full engine run over the
// interaction history, terminating in done or failed.
func (s *session) run() {
	defer s.srv.wg.Done()
	outcome := "done"
	defer func() {
		r := recover()
		s.mu.Lock()
		s.running = false
		s.captureHistoryLocked()
		if r != nil {
			switch v := r.(type) {
			case abortError:
				outcome, s.failure = "aborted", v.reason
			case oracle.ErrBudget:
				outcome, s.failure = "budget", v.Error()
			default:
				outcome, s.failure = "panic", fmt.Sprintf("learner panic: %v", v)
				s.srv.logf("serve: session %s: %s", s.id, s.failure)
			}
			s.setStateLocked(StateFailed)
		} else {
			s.setStateLocked(StateDone)
		}
		s.mu.Unlock()
		s.srv.sessionExit(outcome)
	}()

	opts := []run.Option{
		run.WithAlgorithm(s.alg),
		run.WithBatch(),
		run.WithCounter(),
		run.WithInstrumentation(run.Instrumentation{Spans: s.srv.tracer, Metrics: s.srv.reg}),
	}
	if s.mode == ModeVerify {
		res := s.vs.RunWith(s.hist, opts...)
		s.mu.Lock()
		s.verdict = &res
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	reviseFrom := s.reviseFrom
	s.reviseFrom = nil
	s.mu.Unlock()
	if reviseFrom != nil {
		// The amendment fast path (§5 + the §6 revision sketch): replay
		// the prior run's settled history through internal/revise, so
		// only the damaged sub-lattice generates new wire questions. The
		// history replays recorded answers for free; revise verifies the
		// prior learned query against it, repairs the implicated parts,
		// and escalates to a full learn only if damage attribution
		// under-approximated.
		if res, err := revise.Revise(*reviseFrom, s.hist); err == nil {
			s.mu.Lock()
			s.learned, s.haveLearned = res.Revised, true
			s.revision = &RevisionInfo{
				VerificationQuestions: res.VerificationQuestions,
				RepairQuestions:       res.RepairQuestions,
				Escalated:             res.Escalated,
			}
			s.mu.Unlock()
			return
		}
		// Revise refused (the prior query left the role-preserving
		// class): fall back to a full relearn.
	}
	q, st := learn.Run(s.u, s.hist, opts...)
	s.mu.Lock()
	s.learned, s.stats, s.haveLearned, s.statsKnown = q, st, true, true
	s.mu.Unlock()
}

// exchange is the network-facing oracle at the bottom of a session's
// stack: AskBatch publishes the batch and blocks the learner until
// every question is answered over HTTP.
type exchange struct{ s *session }

// Ask implements oracle.Oracle; a lone adaptive question (a binary-
// search probe) is a batch of one.
func (e exchange) Ask(q boolean.Set) bool { return e.AskBatch([]boolean.Set{q})[0] }

// AskBatch implements oracle.BatchOracle. The session history above
// guarantees the batch holds distinct, never-before-asked questions.
// The pending table (pqs + index map) and the wake channel are reused
// across rounds, so a round allocates only the answers slice handed
// back up the oracle stack.
func (e exchange) AskBatch(qs []boolean.Set) []bool {
	s := e.s
	s.mu.Lock()
	if s.aborted {
		reason := s.abortReason
		s.mu.Unlock()
		panic(abortError{reason})
	}
	now := time.Now()
	s.waiting = true
	s.remaining = len(qs)
	if n := len(qs); n <= cap(s.pqs) {
		s.pqs = s.pqs[:n]
	} else {
		s.pqs = append(s.pqs[:cap(s.pqs)], make([]pendingQ, n-cap(s.pqs))...)
	}
	for i, q := range qs {
		p := &s.pqs[i]
		key := q.Key()
		p.key, p.q, p.posted, p.answered = key, q, now, false
		p.tuples = formatTuplesInto(p.tuples[:0], s.u, q)
		s.pending[key] = int32(i)
	}
	s.srv.outstanding.Add(float64(len(qs)))
	s.captureHistoryLocked() // the learner is about to block: hist is quiescent
	s.setStateLocked(StateAwaiting)
	s.mu.Unlock()

	<-s.wake

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		panic(abortError{s.abortReason})
	}
	answers := make([]bool, len(qs))
	for i := range s.pqs {
		answers[i] = s.pqs[i].answer
	}
	clear(s.pending)
	s.pqs = s.pqs[:0]
	return answers
}

// deliver applies (possibly partial, possibly out-of-order) answer
// pairs to the outstanding batch, filling rep. Unknown keys are
// reported (as borrowed slices of the request buffer — the handler
// encodes before releasing it), repeats of settled questions counted
// as duplicates; when the last outstanding question settles the
// learner wakes and the state returns to learning. Keys reach the
// pending and settled maps through the m[string(b)] form, which the
// compiler lowers to an allocation-free lookup.
func (s *session) deliver(pairs []wireAnswer, rep *answerOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pa := range pairs {
		idx, ok := s.pending[string(pa.key)]
		if !ok {
			if s.settled[string(pa.key)] {
				rep.duplicate++
			} else {
				rep.unknown = append(rep.unknown, pa.key)
			}
			continue
		}
		p := &s.pqs[idx]
		if p.answered {
			rep.duplicate++
			continue
		}
		p.answered, p.answer = true, pa.answer
		s.settled[p.key] = true
		s.remaining--
		rep.accepted++
		s.srv.outstanding.Add(-1)
		s.srv.answerLatency.Observe(time.Since(p.posted).Seconds())
	}
	if s.remaining == 0 && s.waiting {
		s.waiting = false
		s.wake <- struct{}{} // cap 1; at most one token in flight (see abort)
		s.setStateLocked(StateLearning)
	}
	rep.outstanding = s.remaining
	rep.state = s.state
	if s.aborted {
		// The abort cleared the batch, so answers that were
		// legitimately in flight land in Unknown; the reason tells the
		// driver the session died rather than that it typo'd a key.
		rep.abortReason = s.abortReason
	}
}

// abort wakes a blocked learner with a panic and marks the session so
// any later question also aborts. Aborting a finished session is a
// no-op.
func (s *session) abort(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted || !s.running {
		return
	}
	s.aborted = true
	s.abortReason = reason
	if s.waiting {
		s.waiting = false
		s.srv.outstanding.Add(-float64(s.remaining))
		s.remaining = 0
		clear(s.pending)
		s.pqs = s.pqs[:0]
		s.wake <- struct{}{} // cap 1; the waiting flag serializes producers
	}
}

// questionsInto renders the outstanding batch as QuestionBatch wire
// JSON appended to b. A positive wait long-polls: while the session
// is computing (state learning) the call blocks — up to wait — for
// the next state change, so drivers see fresh batches without
// busy-polling. Tuples were formatted once at batch publication, so
// rendering is a pure append pass.
func (s *session) questionsInto(b []byte, wait time.Duration) []byte {
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		if s.state != StateLearning || time.Now().After(deadline) {
			b = append(b, `{"state":`...)
			b = appendJSONString(b, s.state)
			b = append(b, `,"questions":[`...)
			n := 0
			for i := range s.pqs {
				p := &s.pqs[i]
				if p.answered {
					continue
				}
				if n > 0 {
					b = append(b, ',')
				}
				n++
				b = append(b, `{"key":`...)
				b = appendJSONString(b, p.key)
				b = append(b, `,"tuples":[`...)
				for j, t := range p.tuples {
					if j > 0 {
						b = append(b, ',')
					}
					b = appendJSONString(b, t)
				}
				b = append(b, "]}"...)
			}
			b = append(b, "]}"...)
			s.mu.Unlock()
			return b
		}
		ch := s.stateSeq
		s.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			continue
		}
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// info snapshots the session for GET /sessions/{id}.
func (s *session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := SessionInfo{
		ID:                s.id,
		State:             s.state,
		Mode:              s.mode,
		Algorithm:         s.alg.String(),
		Variables:         s.u.N(),
		User:              s.user,
		Runs:              s.runs,
		Outstanding:       s.remaining,
		QuestionsOnRecord: len(s.histEntries),
		LiveQuestions:     s.histLive,
		Revision:          s.revision,
		Error:             s.failure,
	}
	if s.mode == ModeVerify {
		in.Given = s.givenStr
	}
	if s.budget != nil {
		r := s.budget.Remaining()
		in.BudgetRemaining = &r
	}
	if s.haveLearned {
		in.Learned = s.learned.String()
		if s.statsKnown {
			in.Stats = &StatsInfo{
				HeadQuestions:        s.stats.HeadQuestions,
				BodyQuestions:        s.stats.BodyQuestions,
				ExistentialQuestions: s.stats.ExistentialQuestions,
				Total:                s.stats.Total(),
			}
		}
	}
	if s.verdict != nil {
		v := &VerifyInfo{Correct: s.verdict.Correct, QuestionsAsked: s.verdict.QuestionsAsked}
		for _, d := range s.verdict.Disagreements {
			v.Disagreements = append(v.Disagreements, WireQuestion{
				Key:    d.Question.Set.Key(),
				Tuples: formatTuples(s.u, d.Question.Set),
			})
		}
		in.Verify = v
	}
	return in
}

// history renders the recorded interaction history from the quiescent-
// point cache, so it is safe (and consistent) even while the learner is
// computing.
func (s *session) history() []HistoryEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.histEntries
	out := make([]HistoryEntry, len(entries))
	for i, e := range entries {
		out[i] = HistoryEntry{
			Index:   i,
			Tuples:  formatTuples(s.u, e.Question),
			Answer:  e.Answer,
			Amended: e.Amended,
		}
	}
	return out
}

// snapshot serializes the session for crash/resume. While the learner
// is computing the history is in motion, so the caller gets
// errSnapshotBusy and should retry; while awaiting answers (or done,
// or failed) the history is quiescent. Answers of the in-flight batch
// are not yet on record — resume re-asks that batch, and nothing else.
func (s *session) snapshot() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running && s.state == StateLearning {
		return Snapshot{}, errSnapshotBusy
	}
	hist, err := s.hist.EncodeJSON(s.u)
	if err != nil {
		return Snapshot{}, err
	}
	snap := Snapshot{
		Version:   1,
		Mode:      s.mode,
		Algorithm: s.alg.String(),
		Given:     s.givenStr,
		Budget:    -1,
		User:      s.user,
		History:   hist,
	}
	if s.budget != nil {
		snap.Budget = s.budget.Remaining()
	}
	return snap, nil
}

// errSnapshotBusy reports a snapshot attempt while the learner is
// computing between batches; the handler maps it to 409.
var errSnapshotBusy = fmt.Errorf("serve: session is computing; retry snapshot shortly")

// amend flips recorded answers (by history index, or by question key)
// and reruns the learner over the corrected history — the §5 revision
// loop. Only a finished (done or failed) session may amend; an
// in-flight run would race its own history.
//
// Eligible learn sessions take the revision fast path: the prior
// learned query is repaired through internal/revise over the replayed
// history instead of relearned from scratch. Eligibility requires the
// role-preserving algorithm with a learned query on record — the rp
// learner emits Prop 4.1 normal forms, so the revised query is
// textually identical to what a full relearn would produce; the
// qhorn-1 learner's output is not normalized, so those sessions
// relearn to preserve bit-identity.
func (s *session) amend(req AmendRequest) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return fmt.Errorf("serve: session is still running; answer or delete it before amending")
	}
	if req.Index == nil && req.Key == "" {
		s.mu.Unlock()
		return fmt.Errorf("serve: amend needs an index or a key")
	}
	eligible := s.mode == ModeLearn && s.alg == run.RolePreserving &&
		s.haveLearned && s.learned.IsRolePreserving()
	var reviseFrom *query.Query
	switch req.Strategy {
	case "", StrategyAuto:
		if eligible {
			prior := s.learned
			reviseFrom = &prior
		}
	case StrategyRelearn:
	case StrategyRevise:
		if !eligible {
			s.mu.Unlock()
			return fmt.Errorf("serve: session not eligible for the revision fast path (need a finished role-preserving learn)")
		}
		prior := s.learned
		reviseFrom = &prior
	default:
		s.mu.Unlock()
		return fmt.Errorf("serve: unknown amend strategy %q (want auto, relearn or revise)", req.Strategy)
	}
	var err error
	var fixedAt int
	if req.Index != nil {
		fixedAt, err = *req.Index, s.hist.Amend(*req.Index)
	} else {
		fixedAt, err = s.amendByKeyLocked(req.Key)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if s.user != "" {
		// Propagate the correction into the shared tier, so later
		// sessions of this user see the corrected answer instead of
		// the stale one.
		e := s.hist.View()[fixedAt]
		s.srv.memo.Update(s.user, e.Question, e.Answer)
	}
	s.reviseFrom = reviseFrom
	s.hist.ResetRun()
	s.captureHistoryLocked()
	s.mu.Unlock()
	if !s.srv.relaunch(s) {
		return fmt.Errorf("serve: server is shutting down")
	}
	return nil
}

// Amend strategies (AmendRequest.Strategy).
const (
	StrategyAuto    = "auto"
	StrategyRelearn = "relearn"
	StrategyRevise  = "revise"
)

// amendByKeyLocked flips the recorded answer of the history entry with
// the given canonical key, returning its index. Callers hold s.mu.
func (s *session) amendByKeyLocked(key string) (int, error) {
	q, err := boolean.ParseKey(key)
	i, ok := s.hist.Index(q)
	if err != nil || !ok {
		return 0, fmt.Errorf("serve: no history entry with key %q", key)
	}
	return i, s.hist.Amend(i)
}

// formatTuples renders a question's tuples in the paper's fixed-width
// notation, the wire format answerers evaluate against.
func formatTuples(u boolean.Universe, q boolean.Set) []string {
	return formatTuplesInto(make([]string, 0, len(q.Tuples())), u, q)
}

// formatTuplesInto is formatTuples appending into dst, so a recycled
// pendingQ reuses its tuples slice across rounds.
func formatTuplesInto(dst []string, u boolean.Universe, q boolean.Set) []string {
	for _, t := range q.Tuples() {
		dst = append(dst, u.Format(t))
	}
	return dst
}
