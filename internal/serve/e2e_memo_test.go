package serve_test

// End-to-end coverage of the shared cross-session memo tier and the
// §5 amendment revision fast path. The tier's contract has two halves:
// cold it is invisible (bit-identical runs), warm it only removes wire
// questions, never changes what is learned — and answers never cross
// oracle identities, and no session waits on another session's
// client. The revision fast path must converge to the same normal
// form a full relearn produces (Prop 4.1), while exposing its question
// breakdown on the session info.

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"qhorn/internal/difffuzz"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	engine "qhorn/internal/run"
	"qhorn/internal/serve"
)

// TestE2EMemoColdIdentity attaches sessions to a cold shared tier and
// holds them to the repo's core bar: learned query, live-question
// count and recorded history identical to a direct learn.Run. A cold
// tier forwards every batch unchanged, so the network inversion plus
// the tier must still be invisible to the algorithms.
func TestE2EMemoColdIdentity(t *testing.T) {
	cases := []struct {
		alg   engine.Algorithm
		class difffuzz.Class
		seed  int64
	}{
		{engine.Qhorn1, difffuzz.ClassQhorn1, 21},
		{engine.RolePreserving, difffuzz.ClassRP, 22},
	}
	n := 3
	if testing.Short() {
		n = 1
	}
	for _, cs := range cases {
		for _, target := range targets(cs.class, cs.seed, n) {
			// A fresh server per target keeps the tier cold.
			_, c := startServer(t, serve.Config{})
			driveIdentityAs(t, c, target, cs.alg, "alice", serve.DriveOptions{})
		}
	}
}

// TestE2EMemoWarmRepeat learns the same target three times on one
// server: twice as alice, once as bob. The second alice session must
// learn the identical query while paying strictly fewer wire
// questions; bob, a distinct identity, must pay full price — cached
// answers never cross users.
func TestE2EMemoWarmRepeat(t *testing.T) {
	srv, c := startServer(t, serve.Config{})
	target := targets(difffuzz.ClassQhorn1, 23, 1)[0]
	want, _, _ := directLearn(target, engine.Qhorn1)
	honest := serve.AnswererFor(target.U, oracle.Target(target))

	learnAs := func(user string) int64 {
		t.Helper()
		var wire int64
		info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "qhorn1", User: user})
		if err != nil {
			t.Fatalf("create as %q: %v", user, err)
		}
		final, err := c.Drive(info.ID, serve.CountingAnswerer(honest, &wire), serve.DriveOptions{})
		if err != nil {
			t.Fatalf("drive as %q: %v", user, err)
		}
		if final.State != serve.StateDone {
			t.Fatalf("session of %q ended %q (error %q)", user, final.State, final.Error)
		}
		if final.Learned != want.String() {
			t.Fatalf("session of %q learned %q, want %q", user, final.Learned, want)
		}
		return wire
	}

	cold := learnAs("alice")
	if cold == 0 {
		t.Fatal("cold session answered no wire questions")
	}
	if warm := learnAs("alice"); warm >= cold {
		t.Fatalf("second alice session answered %d wire questions, first answered %d; the tier saved nothing", warm, cold)
	}
	if stranger := learnAs("bob"); stranger != cold {
		t.Fatalf("bob's first session answered %d wire questions, alice's cold run %d; identities leak", stranger, cold)
	}

	if hits := srv.Registry().CounterValue(obs.MetricMemoTierHits); hits == 0 {
		t.Error("qhornd_memo_hits_total is zero after a warm session")
	}
	if srv.Memo().Len() == 0 {
		t.Error("shared tier is empty after three sessions")
	}
}

// TestE2EMemoSameUserConcurrent runs two sessions of one user on one
// target at once. Session A's client takes its first batch and never
// answers. Session B, asking the same questions, must still finish
// through its own client with the direct learn's query: the tier
// never makes a session wait on another session's client. Deleting A
// then leaves no question outstanding.
func TestE2EMemoSameUserConcurrent(t *testing.T) {
	srv, c := startServer(t, serve.Config{})
	target := targets(difffuzz.ClassQhorn1, 43, 1)[0]
	want, _, _ := directLearn(target, engine.Qhorn1)
	create := func() string {
		t.Helper()
		info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "qhorn1", User: "alice"})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		return info.ID
	}

	silent := create()
	qb, err := c.Questions(silent, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if qb.State != serve.StateAwaiting || len(qb.Questions) == 0 {
		t.Fatalf("silent session: state %q with %d questions", qb.State, len(qb.Questions))
	}

	id := create()
	type result struct {
		info serve.SessionInfo
		err  error
	}
	done := make(chan result, 1)
	go func() {
		info, err := c.Drive(id, serve.AnswererFor(target.U, oracle.Target(target)), serve.DriveOptions{})
		done <- result{info, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("drive: %v", r.err)
		}
		if r.info.State != serve.StateDone {
			t.Fatalf("session ended %q (error %q), want done", r.info.State, r.info.Error)
		}
		if r.info.Learned != want.String() {
			t.Fatalf("learned %q, direct learn %q", r.info.Learned, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session blocked behind another session of its user that never answers")
	}

	if err := c.Delete(silent); err != nil {
		t.Fatalf("delete: %v", err)
	}
	outstanding := srv.Registry().Gauge(obs.MetricServeQuestionsOutstanding)
	for deadline := time.Now().Add(5 * time.Second); outstanding.Value() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("qhornd_questions_outstanding = %v after the delete, want 0", outstanding.Value())
		}
	}
}

// TestE2EAmendReviseFastPath runs the §5 loop on a role-preserving
// session, which amends through the revision fast path, and requires
// it to converge to the direct learn's normal form (Prop 4.1:
// equivalent role-preserving queries share a syntactic normal form),
// with the fast path exposing its question breakdown. The quantitative
// savings claim lives in the revise experiment (E26), which replays
// one-clause drifts at scale; a single lie on a small target is no
// measure of it.
func TestE2EAmendReviseFastPath(t *testing.T) {
	target := targets(difffuzz.ClassRP, 31, 1)[0]
	want, _, _ := directLearn(target, engine.RolePreserving)
	honest := serve.AnswererFor(target.U, oracle.Target(target))
	_, c := startServer(t, serve.Config{})

	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "rp"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var liedKey string
	liar := func(q serve.WireQuestion) (bool, error) {
		a, err := honest(q)
		if err != nil {
			return false, err
		}
		if liedKey == "" {
			liedKey = q.Key
			return !a, nil
		}
		return a, nil
	}
	noisy, err := c.Drive(info.ID, liar, serve.DriveOptions{})
	if err != nil {
		t.Fatalf("noisy drive: %v", err)
	}
	if noisy.State != serve.StateDone {
		t.Fatalf("noisy session ended %q (error %q)", noisy.State, noisy.Error)
	}
	if liedKey == "" {
		t.Fatal("the liar never got a question")
	}
	amended, err := c.Amend(info.ID, serve.AmendRequest{Key: liedKey})
	if err != nil {
		t.Fatalf("amend: %v", err)
	}
	if amended.Runs != 2 {
		t.Fatalf("amended session reports %d runs, want 2", amended.Runs)
	}
	var wire int64
	revised, err := c.Drive(info.ID, serve.CountingAnswerer(honest, &wire), serve.DriveOptions{})
	if err != nil {
		t.Fatalf("honest drive: %v", err)
	}
	if revised.State != serve.StateDone {
		t.Fatalf("amended session ended %q (error %q)", revised.State, revised.Error)
	}
	if revised.Learned != want.String() {
		t.Fatalf("revision fast path learned %q, direct learn %q", revised.Learned, want)
	}
	if revised.Revision == nil {
		t.Fatal("fast-path session reports no revision breakdown")
	}
	t.Logf("wire questions after amend: %d (%d verify + %d repair, escalated=%v)",
		wire, revised.Revision.VerificationQuestions, revised.Revision.RepairQuestions, revised.Revision.Escalated)
}

// TestE2EAmendQhorn1Relearns: a qhorn-1 session is not eligible for
// the revision fast path, so an amend relearns over the corrected
// history and the session finishes again, with no revision breakdown.
func TestE2EAmendQhorn1Relearns(t *testing.T) {
	target := targets(difffuzz.ClassQhorn1, 37, 1)[0]
	honest := serve.AnswererFor(target.U, oracle.Target(target))
	_, c := startServer(t, serve.Config{})
	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "qhorn1"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Drive(info.ID, honest, serve.DriveOptions{})
	if err != nil || final.State != serve.StateDone {
		t.Fatalf("drive: %v (state %q)", err, final.State)
	}
	zero := 0
	amended, err := c.Amend(info.ID, serve.AmendRequest{Index: &zero})
	if err != nil {
		t.Fatalf("relearn amend: %v", err)
	}
	if amended.Runs != 2 {
		t.Fatalf("amended session reports %d runs, want 2", amended.Runs)
	}
	if final, err = c.Drive(info.ID, honest, serve.DriveOptions{}); err != nil || final.State != serve.StateDone {
		t.Fatalf("drive after amend: %v (state %q)", err, final.State)
	}
	if final.Revision != nil {
		t.Fatal("a relearned qhorn-1 session reports a revision breakdown")
	}
}

// TestE2EAbortReasonOnShutdown delivers a batch into a session whose
// server shut down mid-flight. The answers are necessarily unknown —
// the abort cleared the batch — but the report must say the session
// died, not let the driver believe it typo'd its keys. The handler
// stays mounted (httptest owns the listener), which is exactly the
// late-delivery window a reverse proxy gives a draining qhornd.
func TestE2EAbortReasonOnShutdown(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	c := serve.NewClient(hs.URL)
	target := targets(difffuzz.ClassQhorn1, 41, 1)[0]
	honest := serve.AnswererFor(target.U, oracle.Target(target))

	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "qhorn1"})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := c.Questions(info.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if qb.State != serve.StateAwaiting || len(qb.Questions) == 0 {
		t.Fatalf("first poll: state %q with %d questions", qb.State, len(qb.Questions))
	}
	answers := map[string]bool{}
	for _, q := range qb.Questions {
		a, err := honest(q)
		if err != nil {
			t.Fatal(err)
		}
		answers[q.Key] = a
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Answer(info.ID, answers)
	if err != nil {
		t.Fatalf("late delivery: %v", err)
	}
	if rep.AbortReason == "" {
		t.Fatal("late delivery into an aborted session carries no abort reason")
	}
	if rep.Accepted != 0 || len(rep.Unknown) != len(answers) {
		t.Fatalf("aborted delivery: %d accepted, %d unknown (want 0, %d)", rep.Accepted, len(rep.Unknown), len(answers))
	}
	if rep.State != serve.StateFailed {
		t.Fatalf("aborted delivery reports state %q, want failed", rep.State)
	}
}

// TestE2EAmendWithTierDisabled amends a finished session of a named
// user on a server whose shared tier is disabled. Propagating the
// correction into the absent tier must be a no-op: the amend answers
// 200, the session stays readable, and the server still shuts down.
// Each step runs under a deadline, so a wedged session lock fails the
// test instead of hanging it.
func TestE2EAmendWithTierDisabled(t *testing.T) {
	srv := serve.New(serve.Config{MemoCapacity: -1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := serve.NewClient(srv.URL())
	within := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer within 5s", what)
		}
	}
	target := targets(difffuzz.ClassRP, 41, 1)[0]
	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "rp", User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	within("drive", func() error {
		final, err := c.Drive(info.ID, serve.AnswererFor(target.U, oracle.Target(target)), serve.DriveOptions{})
		if err == nil && final.State != serve.StateDone {
			err = fmt.Errorf("session ended %q", final.State)
		}
		return err
	})
	zero := 0
	within("amend", func() error {
		_, err := c.Amend(info.ID, serve.AmendRequest{Index: &zero})
		return err
	})
	within("info", func() error {
		_, err := c.Info(info.ID)
		return err
	})
	within("close", srv.Close)
}

// TestMemoAnsweredKeyIsDuplicate delivers the key of a question the
// shared memo tier answered for a session. The question never reached
// that session's wire, but it is on the session's record, so the
// delivery counts as a duplicate, exactly as the same key does in a
// session resumed from a snapshot. A key on no record stays unknown.
func TestMemoAnsweredKeyIsDuplicate(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	target := targets(difffuzz.ClassRP, 29, 1)[0]
	honest := serve.AnswererFor(target.U, oracle.Target(target))
	drive := func(wire map[string]bool) string {
		t.Helper()
		info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: "rp", User: "alice"})
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Drive(info.ID, func(q serve.WireQuestion) (bool, error) {
			wire[q.Key] = true
			return honest(q)
		}, serve.DriveOptions{})
		if err != nil || final.State != serve.StateDone {
			t.Fatalf("drive: %+v (%v)", final, err)
		}
		return info.ID
	}
	firstWire, warmWire := map[string]bool{}, map[string]bool{}
	first := drive(firstWire)
	warm := drive(warmWire)
	// The empty set's key is "", so whether a key was found is kept
	// apart from the key itself.
	memoKey, found := "", false
	for k := range firstWire {
		if !warmWire[k] {
			memoKey, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("the memo tier answered none of the warm session's questions")
	}
	snap, err := c.Snapshot(first)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := c.Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{warm, resumed.ID} {
		rep, err := c.Answer(id, map[string]bool{memoKey: true, "not-a-key": true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Accepted != 0 || rep.Duplicate != 1 || len(rep.Unknown) != 1 || rep.Unknown[0] != "not-a-key" {
			t.Fatalf("session %s: delivering a recorded key and a bogus one reported %+v, want 1 duplicate and the bogus key unknown", id, rep)
		}
	}
}
