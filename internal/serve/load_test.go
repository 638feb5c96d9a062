package serve_test

// Load and race coverage for the qhornd server: many concurrent
// sessions, answerers with randomized delays and
// shuffled partial deliveries, interleaved state polls, and a clean
// shutdown with sessions still in flight. Run under -race this is the
// strongest concurrency evidence the package has; the correctness bar
// stays absolute — every session must finish with the exact query a
// direct learn produces, which is impossible if any answer is lost or
// any question duplicated.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"qhorn/internal/difffuzz"
	"qhorn/internal/oracle"
	engine "qhorn/internal/run"
	"qhorn/internal/serve"
)

func TestLoadConcurrentSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	sessions := 200
	srv, c := startServer(t, serve.Config{})

	type job struct {
		target  int // index into ts
		err     error
		learned string
		want    string
	}
	ts := targets(difffuzz.ClassQhorn1, 42, sessions)
	results := make([]job, sessions)

	// Interleaved observers: poll the session list and per-session
	// info while the fleet runs, exercising the read paths against
	// live mutation.
	stopPolls := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPolls:
				return
			default:
			}
			list, err := c.List()
			if err != nil {
				t.Errorf("list: %v", err)
				return
			}
			for i, in := range list.Sessions {
				if i >= 5 {
					break
				}
				if _, err := c.Info(in.ID); err != nil && !serve.IsStatus(err, 404) {
					t.Errorf("info: %v", err)
					return
				}
				if _, err := c.History(in.ID); err != nil && !serve.IsStatus(err, 404) {
					t.Errorf("history: %v", err)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			target := ts[i]
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			want, _, _ := directLearn(target, engine.Qhorn1)
			results[i].want = want.String()
			info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "qhorn1"})
			if err != nil {
				results[i].err = err
				return
			}
			final, err := c.Drive(info.ID, serve.AnswererFor(target.U, oracle.Target(target)), serve.DriveOptions{
				Rng:        rng,
				MaxPerPost: 1 + rng.Intn(3),
				Delay:      func() time.Duration { return time.Duration(rng.Intn(500)) * time.Microsecond },
			})
			if err != nil {
				results[i].err = err
				return
			}
			if final.State != serve.StateDone {
				results[i].err = &serve.StatusError{Status: 0, Msg: "state " + final.State + ": " + final.Error}
				return
			}
			results[i].learned = final.Learned
			// No duplicate questions: the recorded history must hold
			// distinct keys (the session replays repeats internally).
			hist, err := c.History(info.ID)
			if err != nil {
				results[i].err = err
				return
			}
			seen := map[string]bool{}
			for _, e := range hist {
				k := ""
				for _, tu := range e.Tuples {
					k += tu + ","
				}
				if seen[k] {
					results[i].err = &serve.StatusError{Msg: "duplicate question in history: " + k}
					return
				}
				seen[k] = true
			}
		}(i)
	}
	wg.Wait()
	close(stopPolls)
	pollWG.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("session %d (target %s): %v", i, ts[i], r.err)
		}
		if r.learned != r.want {
			t.Fatalf("session %d: learned %q, direct learn gives %q — an answer was lost or misrouted", i, r.learned, r.want)
		}
	}

	// Every question posted was answered: the outstanding gauge is
	// back to zero and no session is still active.
	if v := srv.Registry().Gauge("qhornd_questions_outstanding").Value(); v != 0 {
		t.Errorf("outstanding gauge %v after all sessions finished, want 0", v)
	}
	if v := srv.Registry().Gauge("qhornd_sessions_active").Value(); v != 0 {
		t.Errorf("active gauge %v after all sessions finished, want 0", v)
	}
}

// TestLoadShutdownWithInFlight closes the server while sessions are
// blocked awaiting answers: Close must abort every learner, return
// once their runs have ended, and leave the sessions failed rather
// than leaking.
func TestLoadShutdownWithInFlight(t *testing.T) {
	sessions := 20
	if testing.Short() {
		sessions = 5
	}
	srv, c := startServer(t, serve.Config{})
	ids := make([]string, 0, sessions)
	ts := targets(difffuzz.ClassQhorn1, 77, sessions)
	for i := 0; i < sessions; i++ {
		info, err := c.Create(serve.CreateRequest{Variables: ts[i].N(), Algorithm: "qhorn1"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	// Wait until each session has posted its first batch (learner
	// blocked in the exchange), then shut down with everything in
	// flight.
	for _, id := range ids {
		qb, err := c.Questions(id, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if qb.State != serve.StateAwaiting {
			t.Fatalf("session %s in state %q before shutdown, want awaiting", id, qb.State)
		}
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with sessions in flight")
	}
	// All learner goroutines unwound through the abort path.
	if v := srv.Registry().Gauge("qhornd_sessions_active").Value(); v != 0 {
		t.Errorf("active gauge %v after shutdown, want 0", v)
	}
	if v := srv.Registry().Gauge("qhornd_questions_outstanding").Value(); v != 0 {
		t.Errorf("outstanding gauge %v after shutdown, want 0", v)
	}
	if got := srv.Registry().CounterValue("qhornd_sessions_total", "outcome", "aborted"); got != int64(sessions) {
		t.Errorf("aborted outcome counter %d, want %d", got, sessions)
	}
	// New sessions are refused once closed.
	if _, err := c.Create(serve.CreateRequest{Variables: 3}); err == nil {
		t.Error("create after Close succeeded, want refusal")
	}
}
