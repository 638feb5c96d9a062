package serve_test

// Coverage of the session rendezvous: a learner computes only inside
// the request that drives it, so every response already reflects the
// learner's next step, and a delete returns only after its learner has
// finished. None of these tests sleeps or retries.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"qhorn/internal/difffuzz"
	"qhorn/internal/oracle"
	engine "qhorn/internal/run"
	"qhorn/internal/serve"
)

// answerBatch evaluates every question of a batch with answer.
func answerBatch(t *testing.T, qb serve.QuestionBatch, answer serve.Answerer) map[string]bool {
	t.Helper()
	answers := make(map[string]bool, len(qb.Questions))
	for _, q := range qb.Questions {
		a, err := answer(q)
		if err != nil {
			t.Fatal(err)
		}
		answers[q.Key] = a
	}
	return answers
}

// TestAnswerReportsNextBatch posts each batch without ?wait. The POST
// that settles a batch reports the state after the learner's next
// step: awaiting-answers with the next batch's size as outstanding,
// or done. It never reports learning, and the next GET returns exactly
// the batch the report counted.
func TestAnswerReportsNextBatch(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	for _, tc := range []struct {
		class difffuzz.Class
		alg   engine.Algorithm
	}{{difffuzz.ClassQhorn1, engine.Qhorn1}, {difffuzz.ClassRP, engine.RolePreserving}} {
		target := targets(tc.class, 23, 1)[0]
		answer := serve.AnswererFor(target.U, oracle.Target(target))
		info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: tc.alg.String()})
		if err != nil {
			t.Fatal(err)
		}
		if info.State != serve.StateAwaiting || info.Outstanding == 0 {
			t.Fatalf("%v: create reported state %q with %d outstanding, want the first batch", tc.alg, info.State, info.Outstanding)
		}
		qb, err := c.Questions(info.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		batches := 0
		for qb.State == serve.StateAwaiting {
			batches++
			rep, err := c.Answer(info.ID, answerBatch(t, qb, answer))
			if err != nil {
				t.Fatal(err)
			}
			if qb, err = c.Questions(info.ID, 0); err != nil {
				t.Fatal(err)
			}
			switch {
			case rep.State != qb.State:
				t.Fatalf("%v batch %d: POST reported %q, the next GET %q", tc.alg, batches, rep.State, qb.State)
			case rep.State == serve.StateAwaiting && (rep.Outstanding == 0 || rep.Outstanding != len(qb.Questions)):
				t.Fatalf("%v batch %d: POST reported %d outstanding, the next batch holds %d", tc.alg, batches, rep.Outstanding, len(qb.Questions))
			case rep.State != serve.StateAwaiting && (rep.State != serve.StateDone || rep.Outstanding != 0):
				t.Fatalf("%v batch %d: POST reported %q with %d outstanding, want awaiting-answers or done", tc.alg, batches, rep.State, rep.Outstanding)
			}
		}
		if batches < 2 {
			t.Fatalf("%v: the learn took %d batches; the test needs a longer run", tc.alg, batches)
		}
	}
}

// TestSnapshotAfterEachAnswer takes a snapshot right after every answer
// POST of role-preserving learns on 16 to 20 variables, wide enough
// that the learner's steps take measurable time. Each snapshot must
// succeed on its first call, and hold exactly the history the session
// reports on record.
func TestSnapshotAfterEachAnswer(t *testing.T) {
	srv, c := startServer(t, serve.Config{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		target := difffuzz.GenCase(rng, difffuzz.ClassRP, 16, 20).Hidden
		answer := serve.AnswererFor(target.U, oracle.Target(target))
		info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "rp"})
		if err != nil {
			t.Fatal(err)
		}
		qb, err := c.Questions(info.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		for posts := 1; qb.State == serve.StateAwaiting; posts++ {
			if _, err := c.Answer(info.ID, answerBatch(t, qb, answer)); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(srv.URL() + "/sessions/" + info.ID + "/snapshot")
			if err != nil {
				t.Fatal(err)
			}
			var snap serve.Snapshot
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("target %d: snapshot after POST %d: status %d (%v)", i, posts, resp.StatusCode, err)
			}
			in, err := c.Info(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			var hist struct {
				Entries []json.RawMessage `json:"entries"`
			}
			if err := json.Unmarshal(snap.History, &hist); err != nil {
				t.Fatal(err)
			}
			if len(hist.Entries) != in.QuestionsOnRecord {
				t.Fatalf("target %d: snapshot after POST %d holds %d entries, the session %d", i, posts, len(hist.Entries), in.QuestionsOnRecord)
			}
			if qb, err = c.Questions(info.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
		if qb.State != serve.StateDone {
			t.Fatalf("target %d: session ended %q", i, qb.State)
		}
	}
}

// TestDeleteDrains deletes sessions in every phase — first batch
// outstanding, a batch partly answered, finished — through the
// in-process handler, so no connection goroutine blurs the count. As
// soon as each DELETE returns, the active and outstanding gauges are
// zero and the goroutine count is back to its baseline.
func TestDeleteDrains(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	do := func(method, path, body string, out interface{}) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if out != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("%s %s: %v in %q", method, path, err, rec.Body.String())
			}
		}
		return rec.Code
	}
	gauges := func() (active, outstanding float64) {
		reg := srv.Registry()
		return reg.Gauge("qhornd_sessions_active").Value(), reg.Gauge("qhornd_questions_outstanding").Value()
	}
	target := targets(difffuzz.ClassRP, 31, 1)[0]
	answer := serve.AnswererFor(target.U, oracle.Target(target))
	create := fmt.Sprintf(`{"variables":%d,"algorithm":"rp"}`, target.N())

	baseline, learnerBase := runtime.NumGoroutine(), learners()
	for phase := 0; phase < 3; phase++ {
		var info serve.SessionInfo
		if code := do("POST", "/sessions", create, &info); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
		if got := learners(); got != learnerBase+1 {
			t.Fatalf("phase %d: %d learner goroutines with one session parked, want %d", phase, got, learnerBase+1)
		}
		switch phase {
		case 1: // answer one question of the first batch
			var qb serve.QuestionBatch
			do("GET", "/sessions/"+info.ID+"/questions", "", &qb)
			a, err := answer(qb.Questions[0])
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(serve.AnswerRequest{Answers: map[string]bool{qb.Questions[0].Key: a}})
			do("POST", "/sessions/"+info.ID+"/answers", string(body), nil)
		case 2: // finish the learn
			for {
				var qb serve.QuestionBatch
				do("GET", "/sessions/"+info.ID+"/questions", "", &qb)
				if qb.State != serve.StateAwaiting {
					break
				}
				body, _ := json.Marshal(serve.AnswerRequest{Answers: answerBatch(t, qb, answer)})
				do("POST", "/sessions/"+info.ID+"/answers", string(body), nil)
			}
		}
		if code := do("DELETE", "/sessions/"+info.ID, "", nil); code != http.StatusNoContent {
			t.Fatalf("phase %d: delete: %d", phase, code)
		}
		if active, outstanding := gauges(); active != 0 || outstanding != 0 {
			t.Fatalf("phase %d: after delete, sessions_active %v and questions_outstanding %v, want 0 and 0", phase, active, outstanding)
		}
		// The learner finished its run before DELETE returned; its
		// goroutine may still be stepping out of the runtime after its
		// last channel operation, which nothing can synchronize on. So
		// yield the processor (never sleep) until the counts drop. The
		// total may also dip below the baseline, which a finalizer in
		// flight can raise by one.
		got, left := runtime.NumGoroutine(), learners()
		for i := 0; (got > baseline || left > learnerBase) && i < 10000; i++ {
			runtime.Gosched()
			got, left = runtime.NumGoroutine(), learners()
		}
		if got > baseline || left != learnerBase {
			t.Fatalf("phase %d: after delete, %d goroutines (baseline %d), %d learner goroutines (want %d)", phase, got, baseline, left, learnerBase)
		}
	}
}

// learners counts the goroutines inside a session's learner run.
func learners() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("qhorn/internal/serve.(*session).run("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCreateRacesClose closes a server while 32 goroutines create
// sessions through the in-process handler. Every create answers 201 or
// 503, and as soon as Close returns no admitted run is left: the active
// and outstanding gauges are zero, and the learner goroutines drain.
func TestCreateRacesClose(t *testing.T) {
	srv := serve.New(serve.Config{})
	h := srv.Handler()
	target := targets(difffuzz.ClassRP, 31, 1)[0]
	create := fmt.Sprintf(`{"variables":%d,"algorithm":"rp"}`, target.N())
	learnerBase := learners()

	// Each worker creates until a create is refused, so every worker
	// ends with exactly one 503.
	const workers = 32
	created := make(chan struct{}, 1)
	results := make(chan [2]int, workers) // sessions created, final status
	for i := 0; i < workers; i++ {
		go func() {
			n := 0
			for {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/sessions", strings.NewReader(create)))
				if rec.Code != http.StatusCreated {
					results <- [2]int{n, rec.Code}
					return
				}
				n++
				select {
				case created <- struct{}{}:
				default:
				}
			}
		}()
	}
	<-created // close while creates are in flight
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Minute):
		t.Fatal("Close did not return: an admitted run escaped its sweep")
	}
	reg := srv.Registry()
	if active, outstanding := reg.Gauge("qhornd_sessions_active").Value(), reg.Gauge("qhornd_questions_outstanding").Value(); active != 0 || outstanding != 0 {
		t.Fatalf("after Close, sessions_active %v and questions_outstanding %v, want 0 and 0", active, outstanding)
	}
	ok := 0
	for i := 0; i < workers; i++ {
		r := <-results
		if r[1] != http.StatusServiceUnavailable {
			t.Fatalf("create racing Close answered %d, want 201 or 503", r[1])
		}
		ok += r[0]
	}
	if ok == 0 {
		t.Fatal("no create succeeded before Close")
	}
	// A run's goroutine may still be stepping out of its last channel
	// operation after the run ended; yield until it is gone.
	left := learners()
	for i := 0; left > learnerBase && i < 10000; i++ {
		runtime.Gosched()
		left = learners()
	}
	if left != learnerBase {
		t.Fatalf("after Close, %d learner goroutines, want %d", left, learnerBase)
	}
}

// TestAmendRefusedByClosedServer amends a finished session after its
// server closed: the amend answers 409 and leaves the history and the
// run count as they were.
func TestAmendRefusedByClosedServer(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := serve.NewClient(ts.URL)
	target := targets(difffuzz.ClassRP, 37, 1)[0]
	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "rp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drive(info.ID, serve.AnswererFor(target.U, oracle.Target(target)), serve.DriveOptions{}); err != nil {
		t.Fatal(err)
	}
	before, err := c.History(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	zero := 0
	if _, err := c.Amend(info.ID, serve.AmendRequest{Index: &zero}); !serve.IsStatus(err, http.StatusConflict) || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("amend after Close: %v, want 409 naming the shutdown", err)
	}
	after, err := c.History(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("a refused amend changed the history:\nbefore %+v\nafter  %+v", before, after)
	}
	if in, err := c.Info(info.ID); err != nil || in.Runs != 1 || in.State != serve.StateDone {
		t.Fatalf("after a refused amend: %+v (%v), want one run, done", in, err)
	}
}
