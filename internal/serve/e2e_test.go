package serve_test

// End-to-end harness for the qhornd session server: every test drives
// real HTTP against a listening server and holds the service to the
// repo's core bar — an HTTP-driven learn must be question-for-question
// bit-identical to a direct learn.Run over the same simulated user.
// The direct reference runs the same engine stack (session history +
// batch mode) with a local oracle; the server runs it with the answer
// exchange. Identical recorded histories (order, tuples, answers) and
// identical learned queries prove the network inversion is invisible
// to the algorithms.

import (
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/difffuzz"
	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	engine "qhorn/internal/run"
	"qhorn/internal/serve"
	qsession "qhorn/internal/session"
	"qhorn/internal/verify"
)

// startServer boots a listening server and returns a client for it.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Client) {
	t.Helper()
	srv := serve.New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, serve.NewClient(srv.URL())
}

// directLearn is the reference implementation an HTTP-driven learn
// must match bit-for-bit: the same engine, the same session-history
// wrapper, the same batch mode, a local simulated user.
func directLearn(target query.Query, alg engine.Algorithm) (query.Query, []qsession.Entry, int) {
	hist := qsession.New(oracle.Target(target))
	q, _ := learn.Run(target.U, hist, engine.WithAlgorithm(alg), engine.WithBatch())
	return q, hist.Entries(), hist.LiveQuestions
}

// matchHistory asserts the server-side history is identical — same
// length, same order, same questions, same answers — to the direct
// reference.
func matchHistory(t *testing.T, u boolean.Universe, got []serve.HistoryEntry, want []qsession.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("history length %d over HTTP, %d direct", len(got), len(want))
	}
	for i, w := range want {
		wantTuples := make([]string, 0, len(w.Question.Tuples()))
		for _, tu := range w.Question.Tuples() {
			wantTuples = append(wantTuples, u.Format(tu))
		}
		g := got[i]
		if g.Answer != w.Answer {
			t.Fatalf("history[%d]: answer %v over HTTP, %v direct", i, g.Answer, w.Answer)
		}
		if len(g.Tuples) != len(wantTuples) {
			t.Fatalf("history[%d]: %d tuples over HTTP, %d direct", i, len(g.Tuples), len(wantTuples))
		}
		for j := range wantTuples {
			if g.Tuples[j] != wantTuples[j] {
				t.Fatalf("history[%d] tuple %d: %q over HTTP, %q direct", i, j, g.Tuples[j], wantTuples[j])
			}
		}
	}
}

// driveIdentity learns target over HTTP and asserts the run is
// bit-identical to the direct reference.
func driveIdentity(t *testing.T, c *serve.Client, target query.Query, alg engine.Algorithm, opt serve.DriveOptions) {
	t.Helper()
	driveIdentityAs(t, c, target, alg, "", opt)
}

// driveIdentityAs is driveIdentity with an oracle identity: the session
// attaches to the server's shared memo tier as user (empty opts out).
func driveIdentityAs(t *testing.T, c *serve.Client, target query.Query, alg engine.Algorithm, user string, opt serve.DriveOptions) {
	t.Helper()
	want, wantHist, wantLive := directLearn(target, alg)
	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: alg.String(), User: user})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	final, err := c.Drive(info.ID, serve.AnswererFor(target.U, oracle.Target(target)), opt)
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("session ended %q (error %q), want done", final.State, final.Error)
	}
	if final.Learned != want.String() {
		t.Fatalf("target %s: learned %q over HTTP, %q direct", target, final.Learned, want)
	}
	if final.LiveQuestions != wantLive {
		t.Fatalf("target %s: %d live questions over HTTP, %d direct", target, final.LiveQuestions, wantLive)
	}
	hist, err := c.History(info.ID)
	if err != nil {
		t.Fatalf("history: %v", err)
	}
	matchHistory(t, target.U, hist, wantHist)
	if err := c.Delete(info.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

// targets draws count hidden queries from the difffuzz generators.
func targets(class difffuzz.Class, seed int64, count int) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]query.Query, count)
	for i := range out {
		out[i] = difffuzz.GenCase(rng, class, 3, 6).Hidden
	}
	return out
}

func identityCount(t *testing.T) int {
	if testing.Short() {
		return 5
	}
	return 20
}

func TestE2EIdentityQhorn1(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	for _, target := range targets(difffuzz.ClassQhorn1, 1, identityCount(t)) {
		driveIdentity(t, c, target, engine.Qhorn1, serve.DriveOptions{})
	}
}

func TestE2EIdentityRolePreserving(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	for _, target := range targets(difffuzz.ClassRP, 2, identityCount(t)) {
		driveIdentity(t, c, target, engine.RolePreserving, serve.DriveOptions{})
	}
}

// TestE2EOutOfOrderAnswers shuffles each batch's answer order and
// splits it across single-answer deliveries: the learn must still be
// bit-identical, because answers are keyed, not positional.
func TestE2EOutOfOrderAnswers(t *testing.T) {
	_, c := startServer(t, serve.Config{})
	rng := rand.New(rand.NewSource(7))
	n := 3
	if testing.Short() {
		n = 2
	}
	for _, target := range targets(difffuzz.ClassQhorn1, 3, n) {
		driveIdentity(t, c, target, engine.Qhorn1, serve.DriveOptions{
			Rng:        rng,
			MaxPerPost: 1,
		})
	}
}

// TestE2ECrashResume kills a session mid-learn and resumes it from its
// snapshot on a brand-new server: the recorded answers replay for
// free, only the in-flight batch is re-asked, and the completed run is
// bit-identical to a direct learn.
func TestE2ECrashResume(t *testing.T) {
	u, err := boolean.NewUniverse(5)
	if err != nil {
		t.Fatal(err)
	}
	target, err := query.Parse(u, "Ax1 -> x2 Ax3 -> x4 Ex5")
	if err != nil {
		t.Fatal(err)
	}
	want, wantHist, _ := directLearn(target, engine.Qhorn1)
	answer := serve.AnswererFor(u, oracle.Target(target))

	_, c := startServer(t, serve.Config{})
	info, err := c.Create(serve.CreateRequest{Variables: 5, Algorithm: "qhorn1"})
	if err != nil {
		t.Fatal(err)
	}
	// Answer the first batch only, then wait for the next batch to be
	// posted so the session is quiescent (awaiting) for the snapshot.
	qb, err := c.Questions(info.ID, 5*time.Second)
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
	if _, err := c.Answer(info.ID, answers); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		qb, err = c.Questions(info.ID, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if qb.State == serve.StateAwaiting && len(qb.Questions) > 0 {
			break
		}
		if qb.State == serve.StateDone {
			t.Fatal("session finished after one batch; the crash/resume test needs a longer run")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no second batch appeared; state %q", qb.State)
		}
	}
	snap, err := c.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	recorded := len(answers)                  // history at snapshot = the settled first batch
	if err := c.Delete(info.ID); err != nil { // the "crash"
		t.Fatal(err)
	}

	// Resume on a brand-new server.
	_, c2 := startServer(t, serve.Config{})
	resumed, err := c2.Resume(snap)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.QuestionsOnRecord != recorded {
		t.Fatalf("resumed with %d questions on record, want %d", resumed.QuestionsOnRecord, recorded)
	}
	final, err := c2.Drive(resumed.ID, answer, serve.DriveOptions{})
	if err != nil {
		t.Fatalf("drive resumed: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("resumed session ended %q (error %q)", final.State, final.Error)
	}
	if final.Learned != want.String() {
		t.Fatalf("resumed learn %q, direct %q", final.Learned, want)
	}
	if wantTotal := len(wantHist); final.LiveQuestions != wantTotal-recorded {
		t.Fatalf("resumed run asked %d live questions, want %d (replays are free)",
			final.LiveQuestions, wantTotal-recorded)
	}
	hist, err := c2.History(final.ID)
	if err != nil {
		t.Fatal(err)
	}
	matchHistory(t, u, hist, wantHist)
}

// TestE2EVerify runs a verification session over HTTP and matches the
// verdict — correctness, question count, disagreement set — against a
// direct verify run.
func TestE2EVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, c := startServer(t, serve.Config{})
	n := 5
	if testing.Short() {
		n = 2
	}
	for i := 0; i < n; i++ {
		cs := difffuzz.GenCase(rng, difffuzz.ClassVerify, 3, 5)
		hidden, given := cs.Hidden, cs.Given
		wantRes, err := verify.Run(given, qsession.New(oracle.Target(hidden)), engine.WithBatch())
		if err != nil {
			t.Fatal(err)
		}
		info, err := c.Create(serve.CreateRequest{
			Variables: given.N(),
			Mode:      serve.ModeVerify,
			Given:     given.String(),
		})
		if err != nil {
			t.Fatalf("create verify: %v", err)
		}
		final, err := c.Drive(info.ID, serve.AnswererFor(given.U, oracle.Target(hidden)), serve.DriveOptions{})
		if err != nil {
			t.Fatalf("drive verify: %v", err)
		}
		if final.State != serve.StateDone || final.Verify == nil {
			t.Fatalf("verify session ended %q (verdict %v)", final.State, final.Verify)
		}
		if final.Verify.Correct != wantRes.Correct {
			t.Fatalf("case %s: correct=%v over HTTP, %v direct", cs, final.Verify.Correct, wantRes.Correct)
		}
		if final.Verify.QuestionsAsked != wantRes.QuestionsAsked {
			t.Fatalf("case %s: %d questions over HTTP, %d direct", cs, final.Verify.QuestionsAsked, wantRes.QuestionsAsked)
		}
		if len(final.Verify.Disagreements) != len(wantRes.Disagreements) {
			t.Fatalf("case %s: %d disagreements over HTTP, %d direct",
				cs, len(final.Verify.Disagreements), len(wantRes.Disagreements))
		}
		for j, d := range wantRes.Disagreements {
			if final.Verify.Disagreements[j].Key != d.Question.Set.Key() {
				t.Fatalf("case %s: disagreement %d key mismatch", cs, j)
			}
		}
	}
}

// TestE2EAmend runs the paper's §5 revision loop over HTTP: a user
// misanswers one question, the learn completes wrong, the user flips
// the recorded answer, and the relaunched learner — replaying the
// corrected history for free — converges to the honest result.
func TestE2EAmend(t *testing.T) {
	u, err := boolean.NewUniverse(4)
	if err != nil {
		t.Fatal(err)
	}
	target, err := query.Parse(u, "Ax1 -> x2 Ex3")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := directLearn(target, engine.Qhorn1)
	honest := serve.AnswererFor(u, oracle.Target(target))

	_, c := startServer(t, serve.Config{})
	info, err := c.Create(serve.CreateRequest{Variables: 4, Algorithm: "qhorn1"})
	if err != nil {
		t.Fatal(err)
	}
	// Lie on exactly one question, remembering which.
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

	// Flip the mistaken answer; the learner relaunches over the
	// corrected history.
	amended, err := c.Amend(info.ID, serve.AmendRequest{Key: liedKey})
	if err != nil {
		t.Fatalf("amend: %v", err)
	}
	if amended.Runs != 2 {
		t.Fatalf("amended session reports %d runs, want 2", amended.Runs)
	}
	final, err := c.Drive(info.ID, honest, serve.DriveOptions{})
	if err != nil {
		t.Fatalf("honest drive: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("amended session ended %q (error %q)", final.State, final.Error)
	}
	if final.Learned != want.String() {
		t.Fatalf("after amendment learned %q, want %q", final.Learned, want)
	}
	// The amended entry must be flagged in the history.
	hist, err := c.History(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	foundAmended := false
	for _, e := range hist {
		if e.Amended {
			foundAmended = true
		}
	}
	if !foundAmended {
		t.Fatal("no history entry is flagged amended")
	}
}

// TestE2EMetrics checks the server's own telemetry after real traffic:
// the qhornd_* series are present on /metrics with plausible values.
func TestE2EMetrics(t *testing.T) {
	srv, c := startServer(t, serve.Config{})
	target := targets(difffuzz.ClassQhorn1, 5, 1)[0]
	driveIdentity(t, c, target, engine.Qhorn1, serve.DriveOptions{})

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, series := range []string{
		"qhornd_sessions_active",
		"qhornd_questions_outstanding",
		"qhornd_answer_latency_seconds",
		`qhornd_sessions_total{outcome="done"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if reg := srv.Registry(); reg.CounterValue(obs.MetricServeSessions, "outcome", "done") < 1 {
		t.Errorf("done-outcome counter not incremented")
	}
}
