package serve_test

// Unit coverage of the server's edges: admission control, budgets,
// unknown sessions, malformed requests, answer-report accounting and
// the amend guard rails. Everything here runs in -short mode and backs
// the CI coverage floor.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/serve"
)

func TestAdmissionControl(t *testing.T) {
	srv, c := startServer(t, serve.Config{MaxSessions: 1})
	first, err := c.Create(serve.CreateRequest{Variables: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Create(serve.CreateRequest{Variables: 3})
	if !serve.IsStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("second create got %v, want 429", err)
	}
	if got := srv.Registry().CounterValue(obs.MetricServeRejected); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	// Draining the first session frees the slot.
	u, _ := boolean.NewUniverse(3)
	target, _ := query.Parse(u, "Ex1")
	if _, err := c.Drive(first.ID, serve.AnswererFor(u, oracle.Target(target)), serve.DriveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(serve.CreateRequest{Variables: 3}); err != nil {
		t.Fatalf("create after drain: %v", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	srv, c := startServer(t, serve.Config{})
	info, err := c.Create(serve.CreateRequest{Variables: 4, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.BudgetRemaining == nil || *info.BudgetRemaining > 2 {
		t.Fatalf("budgeted session reports remaining %v", info.BudgetRemaining)
	}
	u, _ := boolean.NewUniverse(4)
	target, _ := query.Parse(u, "Ax1 -> x2 Ax3 -> x4")
	final, err := c.Drive(info.ID, serve.AnswererFor(u, oracle.Target(target)), serve.DriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateFailed {
		t.Fatalf("2-question budget ended %q, want failed", final.State)
	}
	if !strings.Contains(final.Error, "budget") {
		t.Fatalf("failure %q does not mention the budget", final.Error)
	}
	if got := srv.Registry().CounterValue(obs.MetricServeSessions, "outcome", "budget"); got != 1 {
		t.Fatalf("budget outcome counter %d, want 1", got)
	}
}

func TestServerDefaultBudget(t *testing.T) {
	_, c := startServer(t, serve.Config{Budget: 3})
	info, err := c.Create(serve.CreateRequest{Variables: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Create returns with the first batch posted, and posting charges
	// the budget.
	if info.BudgetRemaining == nil || *info.BudgetRemaining+info.Outstanding != 3 {
		t.Fatalf("server-default budget not applied: remaining %v, outstanding %d", info.BudgetRemaining, info.Outstanding)
	}
	// An explicit negative budget opts out of the server default.
	unlimited, err := c.Create(serve.CreateRequest{Variables: 3, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.BudgetRemaining != nil {
		t.Fatalf("budget -1 still budgeted: remaining %v", *unlimited.BudgetRemaining)
	}
}

// TestSnapshotBudgetResume: a snapshot carries the budget that
// remained, so a session that exhausted its budget resumes exhausted —
// not unlimited and not with the server default — and fails on its
// first live question; a snapshot of an unbudgeted session resumes
// unbudgeted.
func TestSnapshotBudgetResume(t *testing.T) {
	srv, c := startServer(t, serve.Config{Budget: 5000})
	u, _ := boolean.NewUniverse(3)
	target, _ := query.Parse(u, "Ax1 -> x2 Ex3")
	answerer := serve.AnswererFor(u, oracle.Target(target))
	info, err := c.Create(serve.CreateRequest{Variables: 3, Algorithm: "rp", Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Drive(info.ID, answerer, serve.DriveOptions{}); err != nil || final.State != serve.StateFailed {
		t.Fatalf("2-question budget ended %+v (%v), want failed", final, err)
	}
	snap, err := c.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Budget != 0 {
		t.Fatalf("snapshot of an exhausted session carries budget %d, want 0", snap.Budget)
	}
	failures := srv.Registry().CounterValue(obs.MetricServeSessions, "outcome", "budget")
	resumed, err := c.Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.State != serve.StateFailed || !strings.Contains(resumed.Error, "budget") {
		t.Fatalf("resumed exhausted session is %q (%q), want failed on the budget", resumed.State, resumed.Error)
	}
	if resumed.BudgetRemaining == nil || *resumed.BudgetRemaining != 0 || resumed.Outstanding != 0 {
		t.Fatalf("resumed exhausted session: remaining %v, outstanding %d; want 0 and 0",
			resumed.BudgetRemaining, resumed.Outstanding)
	}
	if got := srv.Registry().CounterValue(obs.MetricServeSessions, "outcome", "budget"); got != failures+1 {
		t.Fatalf("budget outcome counter %d after resume, want %d", got, failures+1)
	}

	unlimited, err := c.Create(serve.CreateRequest{Variables: 3, Algorithm: "rp", Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = c.Snapshot(unlimited.ID); err != nil || snap.Budget != -1 {
		t.Fatalf("snapshot of an unbudgeted session: budget %d (%v), want -1", snap.Budget, err)
	}
	again, err := c.Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again.BudgetRemaining != nil {
		t.Fatalf("-1 snapshot resumed with budget %d, want unlimited", *again.BudgetRemaining)
	}
	if final, err := c.Drive(again.ID, answerer, serve.DriveOptions{}); err != nil || final.State != serve.StateDone {
		t.Fatalf("resumed unbudgeted session ended %+v (%v), want done", final, err)
	}
}

func TestUnknownSession(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	if _, err := c.Info("nope"); !serve.IsStatus(err, 404) {
		t.Errorf("info: %v, want 404", err)
	}
	if _, err := c.Questions("nope", 0); !serve.IsStatus(err, 404) {
		t.Errorf("questions: %v, want 404", err)
	}
	if _, err := c.Answer("nope", nil); !serve.IsStatus(err, 404) {
		t.Errorf("answer: %v, want 404", err)
	}
	if _, err := c.History("nope"); !serve.IsStatus(err, 404) {
		t.Errorf("history: %v, want 404", err)
	}
	if _, err := c.Snapshot("nope"); !serve.IsStatus(err, 404) {
		t.Errorf("snapshot: %v, want 404", err)
	}
	if _, err := c.Amend("nope", serve.AmendRequest{}); !serve.IsStatus(err, 404) {
		t.Errorf("amend: %v, want 404", err)
	}
	if err := c.Delete("nope"); !serve.IsStatus(err, 404) {
		t.Errorf("delete: %v, want 404", err)
	}
}

func TestBadRequests(t *testing.T) {
	srv, c := startServer(t, serve.Config{})
	// A resumed history of no variables is refused like a create of
	// none, in every algorithm and mode.
	noVariables := func(mode, algorithm, given string) *serve.Snapshot {
		return &serve.Snapshot{Version: 1, Mode: mode, Algorithm: algorithm, Given: given, Budget: -1,
			History: json.RawMessage(`{"variables":0,"entries":[]}`)}
	}
	cases := []serve.CreateRequest{
		{Variables: 3, Mode: "meditate"},
		{Variables: 3, Algorithm: "qhorn9"},
		{Variables: 0},
		{Variables: -1},
		{Variables: 3, Mode: serve.ModeVerify, Given: "not a query"},
		{Snapshot: &serve.Snapshot{Version: 99}},
		{Snapshot: noVariables(serve.ModeLearn, "qhorn1", "")},
		{Snapshot: noVariables(serve.ModeLearn, "rp", "")},
		{Snapshot: noVariables(serve.ModeVerify, "qhorn1", "⊤")},
		{Snapshot: noVariables(serve.ModeVerify, "rp", "⊤")},
		// A user identity is at most 256 bytes, in a create or in the
		// snapshot it resumes.
		{Variables: 3, User: strings.Repeat("u", 257)},
		{Variables: 3, User: strings.Repeat("u", 257), Snapshot: &serve.Snapshot{Version: 1, Budget: -1,
			History: json.RawMessage(`{"variables":3,"entries":[]}`)}},
		{Snapshot: &serve.Snapshot{Version: 1, Budget: -1, User: strings.Repeat("u", 257),
			History: json.RawMessage(`{"variables":3,"entries":[]}`)}},
	}
	for _, req := range cases {
		if _, err := c.Create(req); !serve.IsStatus(err, http.StatusBadRequest) {
			body, _ := json.Marshal(req)
			t.Errorf("create %s: %v, want 400", body, err)
		}
	}
	// The same creates with a 256-byte identity are accepted.
	for _, req := range []serve.CreateRequest{
		{Variables: 3, User: strings.Repeat("u", 256)},
		{Snapshot: &serve.Snapshot{Version: 1, Budget: -1, User: strings.Repeat("u", 256),
			History: json.RawMessage(`{"variables":3,"entries":[]}`)}},
	} {
		if _, err := c.Create(req); err != nil {
			t.Errorf("create with a 256-byte user: %v", err)
		}
	}
	// Bad long-poll duration.
	info, err := c.Create(serve.CreateRequest{Variables: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL() + "/sessions/" + info.ID + "/questions?wait=soon")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad wait: %d, want 400", resp.StatusCode)
	}
	// Every route decodes its body strictly: malformed JSON, a field
	// the request type does not declare (a typo, or the retired
	// single-question answer form) and data after the object are a 400
	// naming the problem, never a request run on what was understood.
	create, amend, answers := "/sessions", "/sessions/"+info.ID+"/amend", "/sessions/"+info.ID+"/answers"
	for _, tc := range []struct{ path, body, want string }{
		{create, "{", "unexpected EOF"},
		{create, `{"variables":3,"algoritm":"rp"}`, `"algoritm"`},
		{create, `{"variables":3} {"x":1}`, "trailing data"},
		{amend, "{", "unexpected EOF"},
		{amend, `{"idx":0}`, `"idx"`},
		{amend, `{"key":"1","strategy":"revise"}`, `"strategy"`},
		{answers, "{", "unexpected EOF"},
		{answers, `{"key":"a1","answer":true}`, `"key"`},
		{answers, `{"key":"a1"}`, `"key"`},
		{answers, `{"answer":true}`, `"answer"`},
		{answers, `{"answers":{"a1":true},"extra":1}`, `"extra"`},
		{answers, `{"answers":{"a1":maybe}}`, "invalid character"},
		{answers, `{"answers":["a1"]}`, "cannot unmarshal array"},
		{answers, `{"answers":{"a1":true}`, "unexpected EOF"},
		{answers, `{"answers":{"a1":true}} trailing`, "trailing data"},
	} {
		code, raw := postRaw(t, srv.URL()+tc.path, tc.body)
		var eb struct{ Error string }
		err := json.Unmarshal(raw, &eb)
		if err != nil || code != http.StatusBadRequest || !strings.Contains(eb.Error, tc.want) {
			t.Errorf("POST %s %s: %d %q, want 400 naming %s", tc.path, tc.body, code, eb.Error, tc.want)
		}
	}
}

// postRaw POSTs a hand-written body and returns the status and the
// response body.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestAnswerAccounting(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	info, err := c.Create(serve.CreateRequest{Variables: 3})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := c.Questions(info.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if qb.State != serve.StateAwaiting || len(qb.Questions) == 0 {
		t.Fatalf("state %q with %d questions, want an outstanding batch", qb.State, len(qb.Questions))
	}
	// Unknown key.
	rep, err := c.Answer(info.ID, map[string]bool{"deadbeef": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unknown) != 1 || rep.Accepted != 0 {
		t.Fatalf("unknown-key report %+v", rep)
	}
	// One real answer; repeating it is a duplicate, not an error.
	key := qb.Questions[0].Key
	rep, err = c.Answer(info.ID, map[string]bool{key: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 {
		t.Fatalf("first answer report %+v", rep)
	}
	rep, err = c.Answer(info.ID, map[string]bool{key: false})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicate != 1 || rep.Accepted != 0 {
		t.Fatalf("retry report %+v, want one duplicate", rep)
	}
	if rep.Outstanding != len(qb.Questions)-1 {
		t.Fatalf("outstanding %d, want %d", rep.Outstanding, len(qb.Questions)-1)
	}
}

func TestAmendGuards(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	info, err := c.Create(serve.CreateRequest{Variables: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Amending a running session is refused.
	if _, err := c.Amend(info.ID, serve.AmendRequest{Key: "deadbeef"}); !serve.IsStatus(err, http.StatusConflict) {
		t.Fatalf("amend while running: %v, want 409", err)
	}
	u, _ := boolean.NewUniverse(3)
	target, _ := query.Parse(u, "Ex1")
	final, err := c.Drive(info.ID, serve.AnswererFor(u, oracle.Target(target)), serve.DriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("session ended %q", final.State)
	}
	// No index, no key.
	if _, err := c.Amend(info.ID, serve.AmendRequest{}); !serve.IsStatus(err, http.StatusConflict) {
		t.Fatalf("empty amend: %v, want 409", err)
	}
	// Unknown, malformed and non-canonical keys, out-of-range index. A
	// key must match a recorded question's Set.Key exactly.
	hist, err := c.History(info.ID)
	if err != nil || len(hist) == 0 {
		t.Fatalf("history: %v (%d entries)", err, len(hist))
	}
	recorded := boolean.MustParseSet(u, strings.Join(hist[0].Tuples, ",")).Key()
	for _, key := range []string{"feedface", "FEEDFACE", "0x1", ",", "0" + recorded, recorded + "," + recorded} {
		_, err := c.Amend(info.ID, serve.AmendRequest{Key: key})
		if !serve.IsStatus(err, http.StatusConflict) || !strings.Contains(err.Error(), "no history entry with key") {
			t.Fatalf("amend with key %q: %v, want 409 no history entry", key, err)
		}
	}
	oob := 10000
	if _, err := c.Amend(info.ID, serve.AmendRequest{Index: &oob}); !serve.IsStatus(err, http.StatusConflict) {
		t.Fatalf("out-of-range amend: %v, want 409", err)
	}
}

func TestListAndStatePoll(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	a, err := c.Create(serve.CreateRequest{Variables: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create(serve.CreateRequest{Variables: 3, Algorithm: "rp"})
	if err != nil {
		t.Fatal(err)
	}
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 2 {
		t.Fatalf("list has %d sessions, want 2", len(list.Sessions))
	}
	ids := map[string]bool{}
	for _, in := range list.Sessions {
		ids[in.ID] = true
	}
	if !ids[a.ID] || !ids[b.ID] {
		t.Fatalf("list %v missing created sessions %s, %s", ids, a.ID, b.ID)
	}
	// A zero-wait poll returns immediately with the current state.
	qb, err := c.Questions(a.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if qb.State != serve.StateLearning && qb.State != serve.StateAwaiting {
		t.Fatalf("unexpected state %q", qb.State)
	}
	if err := c.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	list, err = c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 {
		t.Fatalf("list has %d sessions after delete, want 1", len(list.Sessions))
	}
}

func TestServerAccessorsBeforeStart(t *testing.T) {
	srv := serve.New(serve.Config{})
	if srv.Addr() != "" || srv.URL() != "" {
		t.Errorf("Addr/URL before Start: %q %q, want empty", srv.Addr(), srv.URL())
	}
	if srv.Handler() == nil || srv.Registry() == nil {
		t.Error("Handler or Registry is nil")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close before start: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
