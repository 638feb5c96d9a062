package serve

// This file is the per-session state machine of the qhornd server: a
// resumable learn/verify run whose oracle is the network. A learner
// goroutine runs the ordinary engine (learn.Run / verify.Set.RunWith
// with run.WithBatch) over an interaction-history Session
// (internal/session); at the bottom of that stack sits the answer
// exchange, an oracle.BatchOracle whose AskBatch hands the batch to
// the request that drives the run and parks until that batch's
// answers — arriving out of order over POST /sessions/{id}/answers,
// keyed by canonical boolean.Set.Key — come back. The algorithm
// drives the question stream exactly as it would against a local
// user.
//
// The learner computes only inside a request: the one that holds the
// session lock and drives the rendezvous (launchLocked on create and
// amend, deliver when the last outstanding answer lands, abort on
// delete and shutdown). Between requests it is parked, so every
// handler sees one of
//
//	awaiting-answers  an outstanding batch is published; the learner
//	                  is parked in the exchange
//	done              the run finished; the learned query (or the
//	                  verification verdict) is available
//	failed            the run aborted: question budget exhausted,
//	                  session deleted, or server shutdown
//
// and reads the history directly. learning is the transient state
// while a request computes under the lock; no handler ever reports it.
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
// StateLearning only holds while a request computes under the session
// lock, so no response carries it.
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
	tuples   []string // fixed-width wire rendering, formatted once at publish
	answered bool
	answer   bool
}

// session is one live learn/verify session. All mutable state is
// guarded by mu. The learner goroutine never takes mu: it computes
// only while a request holding mu waits on the rendezvous, so what it
// writes is published to handlers by the channel operation that ends
// the request's wait.
type session struct {
	id  string
	srv *Server

	mode     string
	alg      run.Algorithm
	u        boolean.Universe
	givenStr string
	user     string     // oracle identity in the shared memo tier; "" detached
	vs       verify.Set // verify mode: the prebuilt verification set
	budget   *oracle.Budget

	mu          sync.Mutex
	state       string
	abortReason string // set by abort; "" while the run was not aborted

	// ask and reply are the rendezvous with the current run's learner
	// goroutine, both unbuffered and both nil when no run is active. The
	// learner sends each batch on ask and closes it when the run ends;
	// the request holding mu sends the batch's answers on reply, or
	// closes it to abort the run.
	ask   chan []boolean.Set
	reply chan []bool

	hist      *qsession.Session
	pending   map[string]int32 // key → index into pqs
	pqs       []pendingQ       // current batch in posted order, reused across rounds
	posted    time.Time        // when the current batch was published
	remaining int

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

// newSession builds an unlaunched session; the caller launches it and
// inserts it into the session table. history, when non-nil, is a
// snapshot's session.EncodeJSON payload to resume from; otherwise
// variables sizes a fresh universe. A negative budgetCap is unlimited;
// any other caps the live questions, 0 leaving none.
func newSession(srv *Server, mode string, alg run.Algorithm, variables int, givenStr string, budgetCap int, userID string, history []byte) (*session, error) {
	s := &session{
		id:       srv.nextID(),
		srv:      srv,
		mode:     mode,
		alg:      alg,
		givenStr: givenStr,
		user:     userID,
		state:    StateLearning,
		pending:  map[string]int32{},
	}
	// The oracle under the interaction history, innermost first:
	// exchange (the wire) → budget → shared memo tier. The tier sits
	// above the budget so questions another session of this user
	// already settled cost this session nothing; with a cold tier it
	// forwards every batch unchanged, so question sequences stay
	// bit-identical to a direct learn.Run.
	var user oracle.Oracle = exchange{s}
	if budgetCap >= 0 {
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
	} else {
		u, err := boolean.NewUniverse(variables)
		if err != nil {
			return nil, err
		}
		s.hist, s.u = qsession.New(user), u
	}
	if s.u.N() == 0 {
		return nil, fmt.Errorf("serve: a session needs at least one variable")
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
	return s, nil
}

// launchLocked starts a learner run and drives it to its first batch
// (or to its end). The caller holds s.mu (or has not yet shared the
// session) and has admitted the run with Server.admit.
func (s *session) launchLocked() {
	s.abortReason = ""
	s.runs++
	s.haveLearned = false
	s.statsKnown = false
	s.revision = nil
	s.verdict = nil
	s.failure = ""
	s.state = StateLearning
	s.ask, s.reply = make(chan []boolean.Set), make(chan []bool)
	go s.run()
	s.awaitLocked()
}

// awaitLocked waits, holding s.mu, while the learner computes, and
// publishes the batch it asks next. When the run ends instead, run has
// already set the terminal state, and the rendezvous is dropped.
func (s *session) awaitLocked() {
	qs, ok := <-s.ask
	if !ok {
		s.ask, s.reply = nil, nil
		return
	}
	s.posted = time.Now()
	s.remaining = len(qs)
	if n := len(qs); n <= cap(s.pqs) {
		s.pqs = s.pqs[:n]
	} else {
		s.pqs = append(s.pqs[:cap(s.pqs)], make([]pendingQ, n-cap(s.pqs))...)
	}
	for i, q := range qs {
		p := &s.pqs[i]
		key := q.Key()
		p.key, p.answered = key, false
		p.tuples = formatTuplesInto(p.tuples[:0], s.u, q)
		s.pending[key] = int32(i)
	}
	s.srv.outstanding.Add(float64(len(qs)))
	s.state = StateAwaiting
}

// run is the learner goroutine: one full engine run over the
// interaction history, terminating in done or failed. It never takes
// s.mu; the request driving it holds it throughout.
func (s *session) run() {
	outcome := "done"
	defer func() {
		s.state = StateDone
		if r := recover(); r != nil {
			switch v := r.(type) {
			case abortError:
				outcome, s.failure = "aborted", v.reason
			case oracle.ErrBudget:
				outcome, s.failure = "budget", v.Error()
			default:
				outcome, s.failure = "panic", fmt.Sprintf("learner panic: %v", v)
				s.srv.logf("serve: session %s: %s", s.id, s.failure)
			}
			s.state = StateFailed
		}
		s.srv.sessionExit(outcome)
		close(s.ask)
	}()

	opts := []run.Option{
		run.WithAlgorithm(s.alg),
		run.WithBatch(),
		run.WithCounter(),
		run.WithInstrumentation(run.Instrumentation{Spans: s.srv.tracer, Metrics: s.srv.reg}),
	}
	if s.mode == ModeVerify {
		res := s.vs.RunWith(s.hist, opts...)
		s.verdict = &res
		return
	}
	if reviseFrom := s.reviseFrom; reviseFrom != nil {
		s.reviseFrom = nil
		// The amendment fast path (§5 + the §6 revision sketch): replay
		// the prior run's settled history through internal/revise, so
		// only the damaged sub-lattice generates new wire questions. The
		// history replays recorded answers for free; revise verifies the
		// prior learned query against it, repairs the implicated parts,
		// and escalates to a full learn only if damage attribution
		// under-approximated.
		if res, err := revise.Revise(*reviseFrom, s.hist); err == nil {
			s.learned, s.haveLearned = res.Revised, true
			s.revision = &RevisionInfo{
				VerificationQuestions: res.VerificationQuestions,
				RepairQuestions:       res.RepairQuestions,
				Escalated:             res.Escalated,
			}
			return
		}
		// Revise refused (the prior query left the role-preserving
		// class): fall back to a full relearn.
	}
	q, st := learn.Run(s.u, s.hist, opts...)
	s.learned, s.stats, s.haveLearned, s.statsKnown = q, st, true, true
}

// exchange is the network-facing oracle at the bottom of a session's
// stack: AskBatch hands the batch to the driving request and parks the
// learner until the batch's answers come back.
type exchange struct{ s *session }

// Ask implements oracle.Oracle; a lone adaptive question (a binary-
// search probe) is a batch of one.
func (e exchange) Ask(q boolean.Set) bool { return e.AskBatch([]boolean.Set{q})[0] }

// AskBatch implements oracle.BatchOracle. The session history above
// guarantees the batch holds distinct, never-before-asked questions.
func (e exchange) AskBatch(qs []boolean.Set) []bool {
	e.s.ask <- qs
	answers, ok := <-e.s.reply
	if !ok {
		panic(abortError{e.s.abortReason})
	}
	return answers
}

// deliver applies (possibly partial, possibly out-of-order) answer
// pairs to the outstanding batch, filling rep. Unknown keys are
// reported (as borrowed slices of the request buffer — the handler
// encodes before releasing it); a repeat of an answered question of
// the batch, or of any question on record, counts as a duplicate.
// When the last outstanding question settles, deliver hands the
// answers to the learner and waits for its next batch (or its end), so
// rep reports the state that follows. Keys reach the pending map
// through the m[string(b)] form, which the compiler lowers to an
// allocation-free lookup.
func (s *session) deliver(pairs []wireAnswer, rep *answerOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pa := range pairs {
		idx, ok := s.pending[string(pa.key)]
		if !ok {
			// The history is the record of settled questions. Holding
			// s.mu, the learner is parked (or has no run), so nothing
			// writes the history while it is read here.
			if _, ok := s.recordIndex(string(pa.key)); ok {
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
		s.remaining--
		rep.accepted++
		s.srv.outstanding.Add(-1)
		s.srv.answerLatency.Observe(time.Since(s.posted).Seconds())
	}
	if s.remaining == 0 && s.state == StateAwaiting {
		answers := make([]bool, len(s.pqs))
		for i := range s.pqs {
			answers[i] = s.pqs[i].answer
		}
		clear(s.pending)
		s.pqs = s.pqs[:0]
		s.state = StateLearning
		s.reply <- answers
		s.awaitLocked()
	}
	rep.outstanding = s.remaining
	rep.state = s.state
	// An abort cleared the batch, so answers that were legitimately in
	// flight land in Unknown; the reason tells the answerer the session
	// died rather than that it typo'd a key.
	rep.abortReason = s.abortReason
}

// abort ends the active run: it drops the outstanding batch, closes
// reply so the learner unwinds with an abortError panic, and drains
// ask until run closes it, so the goroutine has finished its run when
// abort returns. Aborting a session with no active run is a no-op.
func (s *session) abort(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ask == nil {
		return
	}
	s.abortReason = reason
	s.srv.outstanding.Add(-float64(s.remaining))
	s.remaining = 0
	clear(s.pending)
	s.pqs = s.pqs[:0]
	close(s.reply)
	for range s.ask {
	}
	s.ask, s.reply = nil, nil
}

// questionsInto renders the outstanding batch as QuestionBatch wire
// JSON appended to b. Tuples were formatted once at batch publication,
// so rendering is a pure append pass.
func (s *session) questionsInto(b []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	return append(b, "]}"...)
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
		QuestionsOnRecord: s.hist.Len(),
		LiveQuestions:     s.hist.LiveQuestions,
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

// history renders the recorded interaction history.
func (s *session) history() []HistoryEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.hist.View()
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

// snapshot serializes the session for crash/resume. Answers of the
// in-flight batch are not yet on record — resume re-asks that batch,
// and nothing else.
func (s *session) snapshot() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// amend flips recorded answers (by history index, or by question key)
// and reruns the learner over the corrected history — the §5 revision
// loop, driving the new run to its first batch before it returns.
// Only a finished (done or failed) session may amend; an in-flight run
// would race its own history. The relaunch is admitted before the
// history is touched, so an amend refused by a closed server changes
// nothing.
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
	defer s.mu.Unlock()
	if s.ask != nil {
		return fmt.Errorf("serve: session is still running; answer or delete it before amending")
	}
	if req.Index == nil && req.Key == "" {
		return fmt.Errorf("serve: amend needs an index or a key")
	}
	var reviseFrom *query.Query
	if s.mode == ModeLearn && s.alg == run.RolePreserving && s.haveLearned && s.learned.IsRolePreserving() {
		prior := s.learned
		reviseFrom = &prior
	}
	var fixedAt int
	if req.Index != nil {
		if fixedAt = *req.Index; fixedAt < 0 || fixedAt >= s.hist.Len() {
			return fmt.Errorf("serve: no history entry %d (have %d)", fixedAt, s.hist.Len())
		}
	} else {
		i, ok := s.recordIndex(req.Key)
		if !ok {
			return fmt.Errorf("serve: no history entry with key %q", req.Key)
		}
		fixedAt = i
	}
	if err := s.srv.admit(s); err != nil {
		return err
	}
	s.hist.Amend(fixedAt) //nolint:errcheck // fixedAt is in range
	if s.user != "" {
		// Propagate the correction into the shared tier, so later
		// sessions of this user see the corrected answer instead of
		// the stale one.
		e := s.hist.View()[fixedAt]
		s.srv.memo.Update(s.user, e.Question, e.Answer)
	}
	s.reviseFrom = reviseFrom
	s.hist.ResetRun()
	s.launchLocked()
	return nil
}

// recordIndex returns the history index of the question with the
// given canonical key. Callers hold s.mu, so no learner writes the
// history meanwhile.
func (s *session) recordIndex(key string) (int, bool) {
	q, err := boolean.ParseKey(key)
	if err != nil {
		return 0, false
	}
	return s.hist.Index(q)
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
