package serve_test

// Race coverage for the exchange/deliver edges the load tests don't
// reach deterministically: a delivery racing the session's deletion, a
// second delivery racing the one that settles the batch, and a
// questions poller observing promptly that the session aborted. All of
// these run under -race in CI; the assertions pin the atomicity
// contract of deliver (it holds the session lock, so a delivery either
// wholly precedes or wholly follows an abort — never straddles it).

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qhorn/internal/difffuzz"
	"qhorn/internal/oracle"
	engine "qhorn/internal/run"
	"qhorn/internal/serve"
)

// firstBatchAnswers polls the session's first outstanding batch and
// evaluates it without delivering.
func firstBatchAnswers(t *testing.T, c *serve.Client, id string, answer serve.Answerer) map[string]bool {
	t.Helper()
	qb, err := c.Questions(id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if qb.State != serve.StateAwaiting || len(qb.Questions) == 0 {
		t.Fatalf("first poll: state %q with %d questions", qb.State, len(qb.Questions))
	}
	answers := map[string]bool{}
	for _, q := range qb.Questions {
		a, err := answer(q)
		if err != nil {
			t.Fatal(err)
		}
		answers[q.Key] = a
	}
	return answers
}

// TestE2EDeliverRacesDelete races a full-batch delivery against the
// session's deletion. Whatever the interleaving, the delivery must be
// atomic: every answer accepted (delete lost the race to the lock), or
// every answer unknown with the abort reason attached, or a clean 404
// (delete removed the session before the lookup).
func TestE2EDeliverRacesDelete(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for i := 0; i < rounds; i++ {
		target := targets(difffuzz.ClassQhorn1, int64(50+i), 1)[0]
		honest := serve.AnswererFor(target.U, oracle.Target(target))
		info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "qhorn1"})
		if err != nil {
			t.Fatal(err)
		}
		answers := firstBatchAnswers(t, c, info.ID, honest)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rep, err := c.Answer(info.ID, answers)
			if err != nil {
				if !serve.IsStatus(err, http.StatusNotFound) {
					t.Errorf("racing delivery: %v", err)
				}
				return
			}
			if got := rep.Accepted + rep.Duplicate + len(rep.Unknown); got != len(answers) {
				t.Errorf("racing delivery accounted for %d answers, sent %d", got, len(answers))
			}
			if len(rep.Unknown) > 0 {
				if rep.AbortReason == "" {
					t.Errorf("delivery lost %d answers to the abort with no abort reason", len(rep.Unknown))
				}
				if rep.Accepted != 0 {
					t.Errorf("delivery straddled the abort: %d accepted, %d unknown", rep.Accepted, len(rep.Unknown))
				}
			}
		}()
		go func() {
			defer wg.Done()
			if err := c.Delete(info.ID); err != nil {
				t.Errorf("racing delete: %v", err)
			}
		}()
		wg.Wait()
		if _, err := c.Info(info.ID); !serve.IsStatus(err, http.StatusNotFound) {
			t.Fatalf("session survived its deletion: %v", err)
		}
	}
}

// TestE2EDoubleDeliverRace posts the same full batch from two clients
// at once — the at-least-once retry pattern. Exactly one delivery may
// settle each question (the other sees duplicates), the batch-settling
// close(batchReady) must fire once, and the session must still finish
// bit-identical to a direct learn.
func TestE2EDoubleDeliverRace(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for i := 0; i < rounds; i++ {
		target := targets(difffuzz.ClassQhorn1, int64(70+i), 1)[0]
		want, _, _ := directLearn(target, engine.Qhorn1)
		honest := serve.AnswererFor(target.U, oracle.Target(target))
		info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "qhorn1"})
		if err != nil {
			t.Fatal(err)
		}
		answers := firstBatchAnswers(t, c, info.ID, honest)
		reports := make([]serve.AnswerReport, 2)
		var wg sync.WaitGroup
		for j := range reports {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				rep, err := c.Answer(info.ID, answers)
				if err != nil {
					t.Errorf("delivery %d: %v", j, err)
					return
				}
				reports[j] = rep
			}(j)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		accepted := reports[0].Accepted + reports[1].Accepted
		duplicate := reports[0].Duplicate + reports[1].Duplicate
		if accepted != len(answers) || duplicate != len(answers) {
			t.Fatalf("double delivery: %d accepted, %d duplicate across both (want %d each)",
				accepted, duplicate, len(answers))
		}
		if len(reports[0].Unknown)+len(reports[1].Unknown) != 0 {
			t.Fatalf("double delivery reported unknown keys: %v %v", reports[0].Unknown, reports[1].Unknown)
		}
		final, err := c.Drive(info.ID, honest, serve.DriveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if final.State != serve.StateDone || final.Learned != want.String() {
			t.Fatalf("after double delivery: state %q, learned %q, want done %q", final.State, final.Learned, want)
		}
		if err := c.Delete(info.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestE2ELongPollReturnsPromptlyOnAbort polls a session with a
// 10-second ?wait while its server shuts down. No handler waits — a
// questions fetch answers at once with the session's current state —
// so a poll that follows the abort sees the failed state well inside
// the wait.
func TestE2ELongPollReturnsPromptlyOnAbort(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	c := serve.NewClient(hs.URL)
	target := targets(difffuzz.ClassQhorn1, 90, 1)[0]
	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "qhorn1"})
	if err != nil {
		t.Fatal(err)
	}
	if qb, err := c.Questions(info.ID, 5*time.Second); err != nil || qb.State != serve.StateAwaiting {
		t.Fatalf("first poll: %v (state %q)", err, qb.State)
	}
	observed := make(chan time.Duration, 1)
	errs := make(chan error, 1)
	start := time.Now()
	go func() {
		for {
			qb, err := c.Questions(info.ID, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if qb.State == serve.StateFailed {
				observed <- time.Since(start)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-observed:
		if d > 5*time.Second {
			t.Fatalf("poller needed %v to observe the abort; a questions fetch waited instead of answering with the current state", d)
		}
	case err := <-errs:
		t.Fatalf("poller: %v", err)
	case <-time.After(8 * time.Second):
		t.Fatal("poller never observed the aborted session")
	}
}

// TestE2EHistoryPollDuringLearn reads the history and the session info
// while a role-preserving learner publishes batch after batch. The
// handlers read a view of the history captured at each publication,
// which the learner keeps appending beyond: every poll must see a
// prefix of the final history, never shorter than the poll before.
func TestE2EHistoryPollDuringLearn(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	target := targets(difffuzz.ClassRP, 71, 1)[0]
	_, want, _ := directLearn(target, engine.RolePreserving)
	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "rp"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var polls [][]serve.HistoryEntry
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			h, err := c.History(info.ID)
			if err != nil {
				t.Error(err)
				return
			}
			in, err := c.Info(info.ID)
			if err != nil {
				t.Error(err)
				return
			}
			if len(h) < last || in.QuestionsOnRecord < len(h) {
				t.Errorf("history shrank or ran ahead: %d entries after %d, info says %d", len(h), last, in.QuestionsOnRecord)
				return
			}
			last = len(h)
			polls = append(polls, h)
		}
	}()
	final, err := c.Drive(info.ID, serve.AnswererFor(target.U, oracle.Target(target)), serve.DriveOptions{})
	close(done)
	wg.Wait()
	if err != nil || final.State != serve.StateDone {
		t.Fatalf("drive: %v (state %q)", err, final.State)
	}
	for _, h := range polls {
		matchHistory(t, target.U, h, want[:len(h)])
	}
	if len(polls) == 0 {
		t.Fatal("the poller never read the history")
	}
}
