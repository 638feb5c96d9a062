package session

import (
	"encoding/json"
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
)

// Persistence: a session's interaction history can be saved and
// restored, so a user can close the interface mid-specification and
// resume later — the recorded answers replay without re-asking.

// savedEntry is the wire form of one history entry.
type savedEntry struct {
	Question []string `json:"question"`
	Answer   bool     `json:"answer"`
	Amended  bool     `json:"amended,omitempty"`
}

type savedSession struct {
	Variables int          `json:"variables"`
	Entries   []savedEntry `json:"entries"`
}

// EncodeJSON serializes the history (in first-asked order) together
// with the universe width needed to re-parse the tuples.
func (s *Session) EncodeJSON(u boolean.Universe) ([]byte, error) {
	out := savedSession{Variables: u.N()}
	for _, e := range s.entries {
		se := savedEntry{Answer: e.Answer, Amended: e.Amended}
		for _, t := range e.Question.Tuples() {
			se.Question = append(se.Question, u.Format(t))
		}
		out.Entries = append(out.Entries, se)
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodeJSON restores a session over the given live oracle: the saved
// answers replay for free; only questions beyond the history reach
// the user. It returns the universe recorded in the snapshot.
func DecodeJSON(data []byte, user oracle.Oracle) (*Session, boolean.Universe, error) {
	var in savedSession
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, boolean.Universe{}, err
	}
	u, err := boolean.NewUniverse(in.Variables)
	if err != nil {
		return nil, boolean.Universe{}, err
	}
	s := New(user)
	for i, se := range in.Entries {
		var tuples []boolean.Tuple
		for _, ts := range se.Question {
			t, err := u.Parse(ts)
			if err != nil {
				return nil, boolean.Universe{}, fmt.Errorf("session: entry %d: %w", i, err)
			}
			tuples = append(tuples, t)
		}
		q := boolean.NewSet(tuples...)
		h := s.hash(q)
		if _, dup := s.find(h, q); dup {
			return nil, boolean.Universe{}, fmt.Errorf("session: entry %d duplicates an earlier question", i)
		}
		s.record(h, Entry{Question: q, Answer: se.Answer, Amended: se.Amended})
	}
	return s, u, nil
}
