package serve

// A typed client for the qhornd session API, used by the end-to-end
// harness, the load tests, the bench module and anything else that
// drives a server programmatically. Drive is the canonical answering
// loop: poll the outstanding batch, evaluate each question, post the
// answers — optionally shuffled, split across deliveries and delayed,
// to exercise the out-of-order answer path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
)

// Client talks to one qhornd server.
type Client struct {
	// Base is the server's base URL (Server.URL, or an httptest URL).
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client

	rt atomic.Int64 // HTTP round trips issued through do
}

// RoundTrips reports the HTTP requests this client has issued — the
// per-session wire cost a drive loop actually pays.
func (c *Client) RoundTrips() int64 { return c.rt.Load() }

// NewClient returns a client for the server at base.
func NewClient(base string) *Client { return &Client{Base: base} }

// StatusError is the decoded error envelope of a non-2xx response.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: server returned %d: %s", e.Status, e.Msg)
}

// IsStatus reports whether err is a StatusError with the given code.
func IsStatus(err error, status int) bool {
	se, ok := err.(*StatusError)
	return ok && se.Status == status
}

// do runs one JSON request/response exchange. in == nil sends no body;
// out == nil discards the response body. The answer body and the
// QuestionBatch and AnswerReport responses go through the hand-rolled
// codec (encode.go); everything else through encoding/json.
func (c *Client) do(method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		data, err := marshalRequest(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	c.rt.Add(1)
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb errorBody
		data, _ := io.ReadAll(resp.Body)
		if json.Unmarshal(data, &eb) != nil || eb.Error == "" {
			eb.Error = string(data)
		}
		return &StatusError{Status: resp.StatusCode, Msg: eb.Error}
	}
	switch out.(type) {
	case nil:
		return nil
	case *QuestionBatch, *AnswerReport:
		return decodeResponse(resp.Body, out)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Create starts a session (POST /sessions).
func (c *Client) Create(req CreateRequest) (SessionInfo, error) {
	var in SessionInfo
	err := c.do("POST", "/sessions", req, &in)
	return in, err
}

// Resume starts a session from a snapshot (POST /sessions).
func (c *Client) Resume(snap Snapshot) (SessionInfo, error) {
	return c.Create(CreateRequest{Snapshot: &snap})
}

// Info fetches the session state (GET /sessions/{id}).
func (c *Client) Info(id string) (SessionInfo, error) {
	var in SessionInfo
	err := c.do("GET", "/sessions/"+url.PathEscape(id), nil, &in)
	return in, err
}

// List fetches every live session (GET /sessions).
func (c *Client) List() (SessionList, error) {
	var l SessionList
	err := c.do("GET", "/sessions", nil, &l)
	return l, err
}

// Questions fetches the outstanding batch (GET /sessions/{id}/questions).
// A positive wait is sent as ?wait; the server validates it and
// answers at once, because no session is ever computing between
// requests.
func (c *Client) Questions(id string, wait time.Duration) (QuestionBatch, error) {
	path := "/sessions/" + url.PathEscape(id) + "/questions"
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	var qb QuestionBatch
	err := c.do("GET", path, nil, &qb)
	return qb, err
}

// Answer delivers answers keyed by question key
// (POST /sessions/{id}/answers).
func (c *Client) Answer(id string, answers map[string]bool) (AnswerReport, error) {
	var rep AnswerReport
	err := c.do("POST", "/sessions/"+url.PathEscape(id)+"/answers", AnswerRequest{Answers: answers}, &rep)
	return rep, err
}

// AnswerNext is the fused round trip (POST /sessions/{id}/answers?wait=D):
// it delivers the answers and receives the outstanding batch that
// follows in Report.Next — one round trip per batch instead of a poll
// plus a post.
func (c *Client) AnswerNext(id string, answers map[string]bool, wait time.Duration) (AnswerReport, error) {
	path := "/sessions/" + url.PathEscape(id) + "/answers?wait=" + url.QueryEscape(wait.String())
	var rep AnswerReport
	err := c.do("POST", path, AnswerRequest{Answers: answers}, &rep)
	return rep, err
}

// History fetches the recorded interaction history
// (GET /sessions/{id}/history).
func (c *Client) History(id string) ([]HistoryEntry, error) {
	var h []HistoryEntry
	err := c.do("GET", "/sessions/"+url.PathEscape(id)+"/history", nil, &h)
	return h, err
}

// Snapshot persists the session (GET /sessions/{id}/snapshot).
func (c *Client) Snapshot(id string) (Snapshot, error) {
	var snap Snapshot
	err := c.do("GET", "/sessions/"+url.PathEscape(id)+"/snapshot", nil, &snap)
	return snap, err
}

// Amend flips a recorded answer and relaunches the learner
// (POST /sessions/{id}/amend).
func (c *Client) Amend(id string, req AmendRequest) (SessionInfo, error) {
	var in SessionInfo
	err := c.do("POST", "/sessions/"+url.PathEscape(id)+"/amend", req, &in)
	return in, err
}

// Delete aborts and removes the session (DELETE /sessions/{id}).
func (c *Client) Delete(id string) error {
	return c.do("DELETE", "/sessions/"+url.PathEscape(id), nil, nil)
}

// Answerer evaluates one wire question to a membership answer.
type Answerer func(q WireQuestion) (bool, error)

// AnswererFor adapts a local oracle (typically oracle.Target over a
// generated query) into an Answerer: each wire question's tuples are
// parsed back into a boolean.Set and asked locally.
func AnswererFor(u boolean.Universe, o oracle.Oracle) Answerer {
	return func(q WireQuestion) (bool, error) {
		tuples := make([]boolean.Tuple, len(q.Tuples))
		for i, s := range q.Tuples {
			t, err := u.Parse(s)
			if err != nil {
				return false, err
			}
			tuples[i] = t
		}
		return o.Ask(boolean.NewSet(tuples...)), nil
	}
}

// CountingAnswerer wraps an Answerer, counting successfully evaluated
// answers into n — the wire cost the answering user actually pays.
// Questions served by the server's shared memo tier never reach the
// wire, so comparing counts across sessions measures the tier.
func CountingAnswerer(inner Answerer, n *int64) Answerer {
	return func(q WireQuestion) (bool, error) {
		a, err := inner(q)
		if err == nil {
			atomic.AddInt64(n, 1)
		}
		return a, err
	}
}

// WireMode selects how a Drive loop talks to the server.
type WireMode int

const (
	// WireBatched is the classic loop: GET the outstanding batch, POST
	// its answers, repeat — two round trips per batch.
	WireBatched WireMode = iota
	// WireFused rides the fused round trip: the final POST of a batch
	// carries ?wait and receives the next batch in the same response —
	// one round trip per batch in the steady state.
	WireFused
)

// String names the mode for test and report labels.
func (m WireMode) String() string {
	if m == WireFused {
		return "fused"
	}
	return "batched"
}

// DriveOptions shape a Drive loop. The zero value answers every batch
// in one in-order delivery over the batched wire mode.
type DriveOptions struct {
	// Rng, when non-nil, shuffles the answer order within each batch,
	// exercising out-of-order delivery.
	Rng *rand.Rand
	// MaxPerPost splits each batch into deliveries of at most this many
	// answers; <= 0 delivers the whole batch in one POST.
	MaxPerPost int
	// Delay, when non-nil, is slept before each delivery.
	Delay func() time.Duration
	// MaxRounds bounds the poll/answer loop; <= 0 uses 100000. The
	// bound turns a livelock into an error instead of a hung test.
	MaxRounds int
	// Wire selects the wire mode (batched or fused).
	Wire WireMode
}

// fusedWait is the ?wait Drive sends on a fused post.
const fusedWait = 10 * time.Second

// Drive answers a session to completion: it fetches outstanding
// questions, evaluates each with answer, posts the answers — over the
// selected wire mode — and repeats until the session reaches done or
// failed, returning the final session state.
func (c *Client) Drive(id string, answer Answerer, opt DriveOptions) (SessionInfo, error) {
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 100000
	}
	var qb QuestionBatch
	havePending := false // fused mode: qb came back with the last POST
	for round := 0; round < maxRounds; round++ {
		if !havePending {
			var err error
			if qb, err = c.Questions(id, 0); err != nil {
				return SessionInfo{}, err
			}
		}
		havePending = false
		if qb.State == StateDone || qb.State == StateFailed {
			return c.Info(id)
		}
		if len(qb.Questions) == 0 {
			continue // another answerer settled this batch first; poll again
		}
		qs := qb.Questions
		if opt.Rng != nil {
			qs = append([]WireQuestion(nil), qs...)
			opt.Rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		}
		chunk := opt.MaxPerPost
		if chunk <= 0 {
			chunk = len(qs)
		}
		for lo := 0; lo < len(qs); lo += chunk {
			hi := lo + chunk
			if hi > len(qs) {
				hi = len(qs)
			}
			answers := map[string]bool{}
			for _, q := range qs[lo:hi] {
				a, err := answer(q)
				if err != nil {
					return SessionInfo{}, fmt.Errorf("serve: answering %s: %w", q.Key, err)
				}
				answers[q.Key] = a
			}
			if opt.Delay != nil {
				time.Sleep(opt.Delay())
			}
			if opt.Wire == WireFused && hi == len(qs) {
				// The batch's final delivery fuses the next poll into the
				// same round trip; any positive wait selects it, and the
				// server never waits it out.
				rep, err := c.AnswerNext(id, answers, fusedWait)
				if err != nil {
					return SessionInfo{}, err
				}
				if rep.Next != nil {
					qb, havePending = *rep.Next, true
				}
				continue
			}
			if _, err := c.Answer(id, answers); err != nil {
				return SessionInfo{}, err
			}
		}
	}
	return SessionInfo{}, fmt.Errorf("serve: session %s did not finish within %d drive rounds", id, maxRounds)
}
