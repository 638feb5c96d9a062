package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/difffuzz"
	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	"qhorn/internal/run"
	"qhorn/internal/serve"
	"qhorn/internal/session"
	"qhorn/internal/verify"
)

// kind is the session type of one HTTP plan.
type kind int

const (
	kindCold   kind = iota // learn with no user identity
	kindWarm               // learn under a user identity shared per target and round
	kindVerify             // verify the true query
	kindAmend              // learn lying once, amend the lie, answer the re-run
)

var kindNames = [...]string{"cold", "warm", "verify", "amend"}

// plan is one session of a round.
type plan struct {
	kind   kind
	target int
}

// pollWait is each long-poll's wait. No learner computes that long
// between batches, so a poll that comes back empty is simply repeated.
const pollWait = 10 * time.Second

// maxRequests bounds one session's requests, so a livelock fails the op
// instead of hanging the run.
const maxRequests = 10000

// httpBench is an http-* workload: sessions over qhornd on loopback,
// driven through serve.Client.
type httpBench struct {
	name  string
	alg   run.Algorithm
	fused bool

	srv        *serve.Server
	clients    []*serve.Client // per worker, untraced rounds
	transports []*http.Transport

	targets []target
	plans   []plan
	assign  [][]int

	// Traced rounds only: one timed listener per worker, and the
	// engine time of each plan from its in-process replay.
	traced []*tracedConn
	engine map[plan]engineTimes
}

// Hidden queries of the HTTP workloads have 11 to 13 variables.
const httpMinVars, httpMaxVars = 11, 13

func newHTTPQhorn1(cfg config) (bench, error) {
	ops := 1500
	if cfg.small {
		ops = 20
	}
	// Every session learns a target of its own.
	plans := make([]plan, ops)
	for i := range plans {
		plans[i] = plan{kind: kindCold, target: i}
	}
	return newHTTPBench(cfg, "http-qhorn1", run.Qhorn1, true, plans, ops)
}

func newHTTPRPMixed(cfg config) (bench, error) {
	ops := 1000
	if cfg.small {
		ops = 20
	}
	// The mix is exact: 50% cold, 25% warm, 15% verify, 10% amend. Cold
	// sessions each take a target of their own; warm sessions come in
	// pairs on one target, so the second of a pair is served from the
	// memo tier the first filled; verify and amend sessions take targets
	// of their own among the cold ones. Only the order is drawn from the
	// seed.
	cold, warm, verifies := ops*50/100, ops*25/100, ops*15/100
	amends := ops - cold - warm - verifies
	pairs := (warm + 1) / 2
	plans := make([]plan, 0, ops)
	for i := 0; i < cold; i++ {
		plans = append(plans, plan{kind: kindCold, target: i})
	}
	for i := 0; i < warm; i++ {
		plans = append(plans, plan{kind: kindWarm, target: i / 2})
	}
	for i := 0; i < verifies; i++ {
		plans = append(plans, plan{kind: kindVerify, target: pairs + i})
	}
	for i := 0; i < amends; i++ {
		plans = append(plans, plan{kind: kindAmend, target: pairs + verifies + i})
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	return newHTTPBench(cfg, "http-rp-mixed", run.RolePreserving, false, plans, cold)
}

func newHTTPBench(cfg config, name string, alg run.Algorithm, fused bool, plans []plan, count int) (bench, error) {
	class := difffuzz.ClassQhorn1
	if alg == run.RolePreserving {
		class = difffuzz.ClassRP
	}
	b := &httpBench{name: name, alg: alg, fused: fused, plans: plans}
	b.targets = genTargets(cfg.seed, class, alg, count, httpMinVars, httpMaxVars)
	opTarget := make([]int, len(plans))
	cost := make([]float64, count)
	for i, p := range plans {
		opTarget[i] = p.target
		cost[p.target] += float64(b.targets[p.target].live)
	}
	b.assign = balance(opTarget, cost, cfg.workers)

	b.srv = serve.New(serve.Config{})
	if err := b.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for range b.assign {
		c, tr := newClient(b.srv.URL())
		b.clients = append(b.clients, c)
		b.transports = append(b.transports, tr)
	}
	return b, nil
}

// newClient returns a client holding one persistent connection: each
// closed-loop worker has its own, as each waiting user would.
func newClient(base string) (*serve.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &serve.Client{Base: base, HTTP: &http.Client{Transport: tr}}, tr
}

func (b *httpBench) assignment() [][]int { return b.assign }

func (b *httpBench) close() {
	b.srv.Close()
	for _, tr := range b.transports {
		tr.CloseIdleConnections()
	}
	for _, tc := range b.traced {
		tc.close()
	}
}

// httpSession is the client side of one op.
type httpSession struct {
	b      *httpBench
	c      *serve.Client
	tc     *tracedConn // nil in untraced rounds
	rec    *recorder
	spans  *spanStack
	t      *target
	answer serve.Answerer

	start        time.Time // op start
	firstPending bool      // no batch held yet
	sent         time.Time // answers sent, next batch not yet held; zero otherwise
	lie          bool      // the next answer is a lie (amend plans)
	liedKey      string

	requests       int
	timed          int           // timed requests (traced rounds)
	timedNS        time.Duration // their client round-trip time
	questions      int
	amendQuestions int
	batches        int
	userNS, evalNS time.Duration
}

func (b *httpBench) op(rc *roundCtx, w, i int, rec *recorder) {
	p := b.plans[i]
	t := &b.targets[p.target]
	s := &httpSession{b: b, c: b.clients[w], rec: rec, t: t, firstPending: true, lie: p.kind == kindAmend}
	user := t.user
	if rc.traced {
		s.tc = b.traced[w]
		s.c = s.tc.client
		user = oracle.Func(func(q boolean.Set) bool {
			start := time.Now()
			a := t.user.Ask(q)
			s.evalNS += time.Since(start)
			return a
		})
	}
	s.answer = serve.AnswererFor(t.q.U, user)
	root := rc.root(i, obs.A("kind", kindNames[p.kind]), obs.Af("target", "%d", p.target))
	s.spans = &spanStack{cur: root}
	s.start = time.Now()
	final, id, err := s.run(p, rc.index)
	wall := time.Since(s.start)
	root.End()
	if id != "" {
		// Deleting is outside the op's time but counts as a round trip.
		s.requests++
		if derr := s.c.Delete(id); err == nil {
			err = derr
		}
	}
	var handler map[string]time.Duration
	var calls map[string]int
	if s.tc != nil {
		handler, calls = s.tc.settle(s.requests)
	}
	if err == nil {
		err = s.check(p, final)
	}
	if err != nil {
		rec.fail("%s op %d (%s, target %d): %v", b.name, i, kindNames[p.kind], p.target, err)
		return
	}
	rec.done(wall)
	rec.add("questions", float64(s.questions))
	rec.add("http_questions", float64(s.questions))
	rec.add("round_trips", float64(s.requests))
	rec.add("http_requests", float64(s.requests))
	rec.add("batches", float64(s.batches))
	switch p.kind {
	case kindWarm:
		rec.add("warm_questions", float64(s.questions))
		rec.add("warm_reference", float64(t.live))
	case kindAmend:
		rec.add("amends", 1)
		rec.add("amend_questions", float64(s.amendQuestions))
	}
	if s.tc != nil {
		b.account(p, s, wall, handler, calls)
	}
}

// run drives one session from create to its final state and returns
// that state and the session ID.
func (s *httpSession) run(p plan, round int) (serve.SessionInfo, string, error) {
	req := serve.CreateRequest{Variables: s.t.q.N(), Algorithm: s.b.alg.String()}
	switch p.kind {
	case kindWarm:
		// The round's first warm session of a target fills the memo
		// tier under this identity; the later ones are served from it.
		req.User = fmt.Sprintf("warm-r%d-t%d", round, p.target)
	case kindVerify:
		req.Mode, req.Given = serve.ModeVerify, s.t.given
	}
	var info serve.SessionInfo
	err := s.call("create", func() (err error) { info, err = s.c.Create(req); return err })
	if err != nil {
		return info, "", err
	}
	s.spans.cur.Annotate(obs.A("session", info.ID))
	final, err := s.drive(info.ID)
	if err != nil || p.kind != kindAmend {
		return final, info.ID, err
	}
	// The user corrects the lie, which relaunches the learner on the
	// revision fast path, and answers what the re-run asks.
	if s.liedKey == "" {
		return final, info.ID, fmt.Errorf("no question to lie about")
	}
	err = s.call("amend", func() error {
		_, err := s.c.Amend(info.ID, serve.AmendRequest{Key: s.liedKey})
		return err
	})
	if err != nil {
		return final, info.ID, err
	}
	before := s.questions
	s.sent = time.Time{}
	final, err = s.drive(info.ID)
	s.amendQuestions = s.questions - before
	return final, info.ID, err
}

// drive answers the session's batches until it finishes, then fetches
// its final state.
func (s *httpSession) drive(id string) (serve.SessionInfo, error) {
	var qb serve.QuestionBatch
	poll := func() (err error) { qb, err = s.c.Questions(id, pollWait); return err }
	if err := s.call("questions", poll); err != nil {
		return serve.SessionInfo{}, err
	}
	for s.requests < maxRequests {
		s.hold(qb)
		if qb.State == serve.StateDone || qb.State == serve.StateFailed {
			var info serve.SessionInfo
			err := s.call("info", func() (err error) { info, err = s.c.Info(id); return err })
			return info, err
		}
		if len(qb.Questions) > 0 {
			answers, err := s.answerBatch(qb.Questions)
			if err != nil {
				return serve.SessionInfo{}, err
			}
			s.sent = time.Now()
			if s.b.fused {
				var rep serve.AnswerReport
				err := s.call("answers", func() (err error) { rep, err = s.c.AnswerNext(id, answers, pollWait); return err })
				if err != nil {
					return serve.SessionInfo{}, err
				}
				if rep.Next != nil {
					qb = *rep.Next
					continue
				}
			} else {
				err := s.call("answers", func() error { _, err := s.c.Answer(id, answers); return err })
				if err != nil {
					return serve.SessionInfo{}, err
				}
			}
		}
		if err := s.call("questions", poll); err != nil {
			return serve.SessionInfo{}, err
		}
	}
	return serve.SessionInfo{}, fmt.Errorf("session %s did not finish within %d requests", id, maxRequests)
}

// hold records the user's wait for a batch just received.
func (s *httpSession) hold(qb serve.QuestionBatch) {
	if len(qb.Questions) == 0 {
		return
	}
	now := time.Now()
	switch {
	case s.firstPending:
		s.rec.lat.first.add(now.Sub(s.start))
		s.firstPending = false
	case !s.sent.IsZero():
		s.rec.lat.next.add(now.Sub(s.sent))
	}
	s.sent = time.Time{}
	s.batches++
}

// answerBatch is the simulated user answering one batch.
func (s *httpSession) answerBatch(qs []serve.WireQuestion) (map[string]bool, error) {
	prev := s.spans.push("user.answer")
	defer s.spans.pop(prev)
	start := time.Now()
	answers := make(map[string]bool, len(qs))
	for _, q := range qs {
		a, err := s.answer(q)
		if err != nil {
			return nil, err
		}
		if s.lie {
			a, s.lie, s.liedKey = !a, false, q.Key
		}
		answers[q.Key] = a
	}
	s.userNS += time.Since(start)
	s.questions += len(qs)
	return answers, nil
}

// call issues one request, timing it in traced rounds.
func (s *httpSession) call(route string, f func() error) error {
	s.requests++
	if s.tc == nil {
		return f()
	}
	prev := s.spans.push("client." + route)
	s.tc.setParent(s.spans.cur)
	start := time.Now()
	err := f()
	s.timedNS += time.Since(start)
	s.timed++
	s.tc.setParent(nil)
	s.spans.pop(prev)
	return err
}

// check compares the session's outcome with the direct reference.
func (s *httpSession) check(p plan, final serve.SessionInfo) error {
	if final.State != serve.StateDone {
		return fmt.Errorf("session ended %s: %s", final.State, final.Error)
	}
	switch {
	case p.kind == kindVerify:
		if final.Verify == nil || !final.Verify.Correct {
			return fmt.Errorf("verification of the true query %s was not correct", s.t.given)
		}
	case final.Learned != s.t.want:
		return fmt.Errorf("learned %s, direct reference %s", final.Learned, s.t.want)
	case p.kind == kindCold && (final.LiveQuestions != s.t.live || s.questions != s.t.live):
		return fmt.Errorf("asked %d questions (%d answered), direct reference %d", final.LiveQuestions, s.questions, s.t.live)
	}
	return nil
}

// account splits a traced op's wall time into layer rows. Handler time
// splits into the engine (learner, session, verifier, reviser; taken
// from the plan's in-process replay) and the serve layer's own time.
// Engine work that overlapped transport or client time instead of a
// handler's makes the residual negative.
func (b *httpBench) account(p plan, s *httpSession, wall time.Duration, handler map[string]time.Duration, calls map[string]int) {
	rec := s.rec
	var inHandlers time.Duration
	for route, d := range handler {
		rec.addDur("handler_ns."+route, d)
		rec.add("handler_calls."+route, float64(calls[route]))
		if route != "delete" {
			inHandlers += d
		}
	}
	e := b.engine[engineKey(p)]
	engine := e.total()
	self := max(inHandlers-engine, 0)
	transport := s.timedNS - inHandlers
	rec.layer("user", s.userNS-s.evalNS)
	rec.layer("query.eval", s.evalNS)
	rec.layer("serve.transport", transport)
	rec.layer("serve.handler_self", self)
	rec.layer("learn", e.learn)
	rec.layer("session", e.session)
	rec.layer("verify", e.verify)
	rec.layer("revise", e.revise)
	rec.layer("residual", wall-s.userNS-transport-self-engine)
	rec.layer("wall", wall)
	rec.addDur("rt_ns", s.timedNS)
	rec.addDur("rt_handler_ns", inHandlers)
	rec.add("timed_rt", float64(s.timed))
	rec.addDur("eval_ns", s.evalNS)
	rec.addDur("user_ns", s.userNS)
	rec.add("engine_questions", float64(e.questions))
	rec.add("learn_questions", float64(e.learnQuestions))
	if p.kind == kindVerify {
		rec.addDur("verify_build_ns", e.build)
		rec.add("verify_builds", 1)
	}
}

// tracedConn is one worker's timed path to the server in traced rounds:
// its own listener serving srv.Handler() behind a middleware that times
// every handler, and a client with one connection.
type tracedConn struct {
	client    *serve.Client
	transport *http.Transport
	server    *http.Server
	served    chan struct{}
	next      http.Handler

	mu      sync.Mutex
	parent  *obs.Span // the worker's open request span
	handled int       // requests whose handler has returned
	sent    int       // requests the worker has sent, as of its last settle
	ns      map[string]time.Duration
	calls   map[string]int
}

func newTracedConn(h http.Handler) (*tracedConn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{
		next:   h,
		served: make(chan struct{}),
		ns:     map[string]time.Duration{},
		calls:  map[string]int{},
	}
	tc.client, tc.transport = newClient("http://" + ln.Addr().String())
	tc.server = &http.Server{
		Handler:           tc,
		ReadHeaderTimeout: serve.DefaultReadHeaderTimeout,
		WriteTimeout:      serve.DefaultWriteTimeout,
		IdleTimeout:       serve.DefaultIdleTimeout,
		MaxHeaderBytes:    serve.DefaultMaxHeaderBytes,
	}
	go func() {
		defer close(tc.served)
		tc.server.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return tc, nil
}

func (tc *tracedConn) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	tc.mu.Lock()
	sp := tc.parent.StartChild("serve." + route)
	tc.mu.Unlock()
	start := time.Now()
	tc.next.ServeHTTP(w, r)
	d := time.Since(start)
	sp.End()
	tc.mu.Lock()
	tc.ns[route] += d
	tc.calls[route]++
	tc.handled++
	tc.mu.Unlock()
}

func (tc *tracedConn) setParent(sp *obs.Span) {
	tc.mu.Lock()
	tc.parent = sp
	tc.mu.Unlock()
}

// settle waits until the server has finished every request the worker
// sent, then takes the handler times recorded since the last settle. A
// handler records just after it returns, which can be after its client
// has read the response. A request lost in transport never records; the
// wait gives up after a second and resynchronizes.
func (tc *tracedConn) settle(sent int) (map[string]time.Duration, map[string]int) {
	deadline := time.Now().Add(time.Second)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.sent += sent
	for tc.handled < tc.sent && time.Now().Before(deadline) {
		tc.mu.Unlock()
		runtime.Gosched()
		tc.mu.Lock()
	}
	tc.sent = tc.handled
	ns, calls := tc.ns, tc.calls
	tc.ns, tc.calls = map[string]time.Duration{}, map[string]int{}
	return ns, calls
}

func (tc *tracedConn) close() {
	tc.server.Close()
	<-tc.served
	tc.transport.CloseIdleConnections()
}

// routeOf labels a request with the qhornd route it hits.
func routeOf(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/sessions/")
	if !ok {
		return "create"
	}
	if _, sub, ok := strings.Cut(rest, "/"); ok {
		return sub // questions, answers, amend
	}
	if r.Method == http.MethodDelete {
		return "delete"
	}
	return "info"
}

// engineTimes is the in-process cost of a plan's server-side engine
// work, measured by replaying the plan on the same stack.
type engineTimes struct {
	learn, session, verify, revise time.Duration
	build                          time.Duration // verify.Build, included in verify
	questions, learnQuestions      int
}

func (e engineTimes) total() time.Duration { return e.learn + e.session + e.verify + e.revise }

// engineKey folds warm plans onto cold ones: the memo tier changes
// which questions reach the wire, not what the learner computes.
func engineKey(p plan) plan {
	if p.kind == kindWarm {
		p.kind = kindCold
	}
	return p
}

// replayRuns is how often each plan is replayed; the median run is kept.
const replayRuns = 3

// prepareTrace opens the timed listeners and replays every distinct
// plan in process for its engine time.
func (b *httpBench) prepareTrace() error {
	for range b.assign {
		tc, err := newTracedConn(b.srv.Handler())
		if err != nil {
			return err
		}
		b.traced = append(b.traced, tc)
	}
	b.engine = map[plan]engineTimes{}
	for _, p := range b.plans {
		k := engineKey(p)
		if _, ok := b.engine[k]; ok {
			continue
		}
		runs := make([]engineTimes, replayRuns)
		for j := range runs {
			e, err := b.replay(k)
			if err != nil {
				return fmt.Errorf("replaying %s session of target %d: %w", kindNames[k.kind], k.target, err)
			}
			runs[j] = e
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].total() < runs[j].total() })
		b.engine[k] = runs[replayRuns/2]
	}
	return nil
}

// replay runs a plan's engine work in process the way a qhornd session
// runs it: the same learn.Run, verify or revise calls over an
// interaction-history session, with the simulated user where the
// answer exchange would be. Warm plans replay as cold ones.
func (b *httpBench) replay(p plan) (engineTimes, error) {
	t := &b.targets[p.target]
	var e engineTimes
	var userOracle oracle.Oracle = t.user
	if p.kind == kindAmend {
		userOracle = &lieOnce{inner: t.user}
	}
	user := &timedOracle{inner: userOracle}
	hist := session.New(user)
	o := &timedOracle{inner: hist}
	opts := []run.Option{run.WithAlgorithm(b.alg), run.WithBatch(), run.WithCounter()}
	// selfTime runs f and returns its time minus the time below o.
	selfTime := func(f func()) time.Duration {
		busy, start := o.busy, time.Now()
		f()
		return time.Since(start) - (o.busy - busy)
	}
	learnOnce := func() (q query.Query) {
		before := user.questions
		e.learn += selfTime(func() { q, _ = learn.Run(t.q.U, o, opts...) })
		e.learnQuestions += user.questions - before
		return q
	}
	if p.kind == kindVerify {
		var vs verify.Set
		var err error
		e.build = selfTime(func() { vs, err = verify.Build(t.q) })
		if err != nil {
			return e, err
		}
		var res verify.Result
		e.verify = e.build + selfTime(func() { res = vs.RunWith(o, run.WithBatch(), run.WithCounter()) })
		if !res.Correct {
			return e, fmt.Errorf("verification of the true query was not correct")
		}
	} else {
		learned := learnOnce()
		if p.kind == kindAmend {
			if err := hist.Amend(0); err != nil {
				return e, err
			}
			hist.ResetRun()
			// As the server does: the revision fast path when the prior
			// query is role-preserving and Revise accepts it, else a
			// full relearn.
			revised := false
			if learned.IsRolePreserving() {
				var res revise.Result
				var err error
				e.revise = selfTime(func() { res, err = revise.Revise(learned, o) })
				if err == nil {
					learned, revised = res.Revised, true
				}
			}
			if !revised {
				learned = learnOnce()
			}
		}
		if got := learned.String(); got != t.want {
			return e, fmt.Errorf("replay learned %s, direct reference %s", got, t.want)
		}
		if p.kind == kindCold && user.questions != t.live {
			return e, fmt.Errorf("replay asked %d questions, direct reference %d", user.questions, t.live)
		}
	}
	e.session = o.busy - user.busy
	e.questions = user.questions
	return e, nil
}

// lieOnce answers its first question wrongly, as the amend plans' user
// does on the wire.
type lieOnce struct {
	inner oracle.Oracle
	lied  bool
}

func (l *lieOnce) Ask(q boolean.Set) bool {
	a := l.inner.Ask(q)
	if !l.lied {
		l.lied = true
		return !a
	}
	return a
}
