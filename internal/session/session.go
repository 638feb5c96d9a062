// Package session implements the interaction-history mechanism the
// paper proposes for noisy users (§5): the system keeps a transcript
// of every membership question and the user's response; the user can
// review the history, flip a mistaken response, and the learning
// algorithm restarts "from the point of error" — replaying the
// corrected transcript and consulting the user only for questions the
// corrected run has not seen before.
//
// A Session wraps any oracle. Learners run against the session; after
// a run, Entries exposes the history, Amend flips a recorded
// response, and the next run replays amended history before asking
// the live oracle anything new.
//
// The history is one slice of entries in first-asked order, indexed
// by a small open-addressed hash table (hashindex.Index): a
// power-of-two slice of entry positions, kept at most half full, probed
// linearly from a question's hash. The hash is hashindex.Sum over the
// question's tuples as uvarints (boolean.Set.AppendID), keyed by one
// process-wide random seed, so snapshots decoded from untrusted clients
// cannot be crafted to collide; a hash match is confirmed with
// boolean.Set.Equal. Each entry's 32-bit hash is kept beside the
// entries, so growing the table reinserts positions without hashing
// again. Lookups hash through a reused scratch buffer, and recording a
// question allocates only when a slice or the table grows: no
// per-question key is ever built. The first record reserves entries,
// hashes and table for a typical session at once (historyBlock). The
// hex wire key (Set.Key) is never built here.
//
// A Session is NOT concurrency-safe: its history serializes the
// amendment protocol, so one goroutine asks through it. Engine runs
// over a session use run.WithBatch: the session is a BatchOracle whose
// AskBatch answers replayed questions from the history and forwards
// the remaining distinct questions to the user as one sub-batch, so a
// batch-capable user (the qhornd answer exchange of internal/serve)
// sees whole batches in one round trip. Questions, recorded history
// and counts are identical to serial asking either way (see
// docs/ENGINE.md).
package session

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/hashindex"
	"qhorn/internal/oracle"
)

// Entry is one question of the interaction history with the response
// on record.
type Entry struct {
	// Question is the membership question asked.
	Question boolean.Set
	// Answer is the response currently on record.
	Answer bool
	// Amended marks responses the user corrected after the fact.
	Amended bool
}

// Session is an oracle with a reviewable, amendable history. The zero
// value is unusable; create one with New.
type Session struct {
	user    oracle.Oracle
	entries []Entry         // history in first-asked order
	history hashindex.Index // entries[i] is recorded under position i
	// LiveQuestions counts questions forwarded to the user during the
	// current run (replayed questions are free).
	LiveQuestions int

	// Scratch reused across calls, so a long adaptive run (hundreds of
	// batches against the qhornd exchange) allocates per answer slice,
	// not per lookup or per new question. Safe because a Session is
	// single-goroutine by contract and no oracle wrapper retains the
	// sub-batch slice past AskAll.
	id    []byte          // AppendID of the question being hashed
	sub   []boolean.Set   // AskBatch: distinct new questions, first-occurrence order
	fills []fill          // AskBatch: batch positions the sub-batch answers
	inSub hashindex.Index // AskBatch: sub[j] is recorded under position j
}

// fill routes answer sub[j] to position i of the batch.
type fill struct{ i, j int32 }

// New returns a session over the user's oracle.
func New(user oracle.Oracle) *Session {
	return &Session{user: user}
}

// historyBlock is the number of questions the history reserves room
// for at its first record: entries, hashes and table slots in one go,
// instead of growing each from empty. A role-preserving learn on 16–28
// variables asks a median of about 255 questions (p10 about 105, p90
// about 500); a longer session grows by doubling past the block. New
// reserves nothing, and neither does AskBatch's in-batch index, so a
// session pays nothing before its first question reaches the user.
const historyBlock = 256

// hash returns the hash of q's AppendID bytes, encoding them into the
// reused scratch buffer.
func (s *Session) hash(q boolean.Set) uint32 {
	s.id = q.AppendID(s.id[:0])
	return hashindex.Sum(s.id)
}

// find returns the history position of q, whose hash is h.
func (s *Session) find(h uint32, q boolean.Set) (int32, bool) {
	return s.history.Find(h, func(i int32) bool { return s.entries[i].Question.Equal(q) })
}

// record appends a new history entry whose question hashes to h. The
// first record — and the first after Forget(0) — reserves the
// historyBlock.
func (s *Session) record(h uint32, e Entry) {
	if cap(s.entries) == 0 {
		s.entries = make([]Entry, 0, historyBlock)
		s.history.Reserve(historyBlock)
	}
	s.history.Add(h)
	s.entries = append(s.entries, e)
}

// Ask implements oracle.Oracle: repeated questions — including every
// question replayed after an amendment — are answered from the
// history; new questions go to the user and are recorded.
func (s *Session) Ask(q boolean.Set) bool {
	h := s.hash(q)
	if i, ok := s.find(h, q); ok {
		return s.entries[i].Answer
	}
	a := s.user.Ask(q)
	s.LiveQuestions++
	s.record(h, Entry{Question: q, Answer: a})
	return a
}

// AskBatch implements oracle.BatchOracle: questions already on record
// — including intra-batch repeats — are answered from the history;
// the remaining distinct questions are forwarded to the user as one
// sub-batch in first-occurrence order and recorded. The answers, the
// recorded history order and LiveQuestions are identical to asking
// the batch serially through Ask; only the user-side asking may
// overlap in time when the user is itself a BatchOracle. A panic from
// the user records nothing. The session must still be driven from a
// single goroutine.
func (s *Session) AskBatch(qs []boolean.Set) []bool {
	answers := make([]bool, len(qs))
	sub, fills := s.sub[:0], s.fills[:0]
	s.inSub.Reset()
	for i, q := range qs {
		h := s.hash(q)
		if at, ok := s.find(h, q); ok {
			answers[i] = s.entries[at].Answer
			continue
		}
		j, ok := s.inSub.Find(h, func(j int32) bool { return sub[j].Equal(q) })
		if !ok {
			j = s.inSub.Add(h)
			sub = append(sub, q)
		}
		fills = append(fills, fill{int32(i), j})
	}
	s.sub, s.fills = sub, fills
	if len(sub) == 0 {
		return answers
	}
	res := oracle.AskAll(s.user, sub)
	for j, q := range sub {
		s.record(s.inSub.Hash(int32(j)), Entry{Question: q, Answer: res[j]})
	}
	s.LiveQuestions += len(sub)
	for _, f := range fills {
		answers[f.i] = res[f.j]
	}
	return answers
}

// Entries returns a copy of the history in first-asked order.
func (s *Session) Entries() []Entry {
	out := make([]Entry, len(s.entries))
	copy(out, s.entries)
	return out
}

// View returns the history in first-asked order without copying it.
// The view shares the session's storage: questions recorded later
// never show through it, but Amend and AmendQuestion flip answers in
// place, so a caller that must not see an amendment copies instead
// (Entries). Callers must not modify the view.
func (s *Session) View() []Entry {
	n := len(s.entries)
	return s.entries[:n:n]
}

// Len returns the number of distinct questions on record.
func (s *Session) Len() int { return len(s.entries) }

// Index returns the history position of question q, if it is on
// record.
func (s *Session) Index(q boolean.Set) (int, bool) {
	i, ok := s.find(s.hash(q), q)
	return int(i), ok
}

// Amend flips the recorded response of history entry i (0-based,
// first-asked order). The next learning run replays the corrected
// history. It returns an error if i is out of range.
func (s *Session) Amend(i int) error {
	if i < 0 || i >= len(s.entries) {
		return fmt.Errorf("session: no history entry %d (have %d)", i, len(s.entries))
	}
	e := &s.entries[i]
	e.Answer = !e.Answer
	e.Amended = true
	return nil
}

// AmendQuestion flips the recorded response for the given question.
func (s *Session) AmendQuestion(q boolean.Set) error {
	i, ok := s.Index(q)
	if !ok {
		return fmt.Errorf("session: question %v not in history", q.Tuples())
	}
	return s.Amend(i)
}

// ResetRun clears the live-question counter before a re-run; the
// history itself is kept so the corrected responses replay for free.
func (s *Session) ResetRun() { s.LiveQuestions = 0 }

// Forget drops every history entry from i onward, forcing the next
// run to re-ask them. Use when the user distrusts everything after
// the point of error rather than a single response.
func (s *Session) Forget(i int) error {
	if i < 0 || i > len(s.entries) {
		return fmt.Errorf("session: no history entry %d (have %d)", i, len(s.entries))
	}
	s.history.Truncate(i)
	// Full slice expression: the next question recorded reallocates
	// instead of overwriting entries a View taken earlier still shows.
	s.entries = s.entries[:i:i]
	return nil
}

// InconsistentWith returns the history indices whose recorded answers
// disagree with the given query — the "review your answers" list a
// query interface shows when verification fails. Flipping exactly
// these entries makes the history consistent with q.
func (s *Session) InconsistentWith(ask func(boolean.Set) bool) []int {
	var out []int
	for i, e := range s.entries {
		if ask(e.Question) != e.Answer {
			out = append(out, i)
		}
	}
	return out
}

// AmendAll flips every listed history entry; the next run replays the
// corrections.
func (s *Session) AmendAll(indices []int) error {
	for _, i := range indices {
		if err := s.Amend(i); err != nil {
			return err
		}
	}
	s.ResetRun()
	return nil
}
