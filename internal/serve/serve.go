// Package serve is the qhornd session server: learning-as-a-service
// over HTTP (docs/SERVICE.md). It hosts many concurrent learn/verify
// sessions, each a resumable state machine (session.go) whose learner
// runs the ordinary composable engine (internal/run) against an
// answer exchange instead of a local user — questions go out as
// batches over GET /sessions/{id}/questions, answers come back out of
// order over POST /sessions/{id}/answers, keyed by canonical
// boolean.Set.Key. A learner computes only inside the request that
// settles its batch (or creates or amends its session), so every
// response already carries the next batch's state. A drive loop can
// fuse the two routes: POST /sessions/{id}/answers?wait=D also
// returns the next outstanding batch, in the same round trip.
//
// One read-write lock, Server.mu, guards the session table, the
// shutdown flag and the count of admitted runs. Lookups take the read
// side; create, delete, admission, a run's exit and Close write. A
// create that races shutdown answers 503, and Close returns once every
// admitted run has ended. Request bodies
// are capped at maxBodyBytes (413 beyond it). The per-session
// question budget (the engine's oracle.Budget wrapper) bounds what
// one session can cost. The observability plane (internal/obs) is
// mounted on the same mux: /metrics, /healthz, /spans, /progress and
// /debug/pprof come from obs.Server, extended with the qhornd_*
// series (sessions active, questions outstanding, answer latency,
// outcomes, admission rejections, per-route HTTP latency). The hot
// routes encode and decode through pooled buffers (encode.go) and are
// allocation-gated in CI.
package serve

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/run"
)

// Config sizes a Server. The zero value is usable: unlimited
// sessions, unlimited questions per session, hardened HTTP timeouts.
type Config struct {
	// MaxSessions caps concurrently running sessions; creations
	// beyond it are shed with 429. <= 0 is unlimited.
	MaxSessions int
	// Budget is the default per-session live-question cap, applied
	// when a CreateRequest leaves Budget zero; <= 0 is unlimited.
	Budget int
	// MemoCapacity bounds the server's shared cross-session memo tier
	// (answers cached across sessions of the same user identity): 0
	// selects DefaultMemoCapacity, negative disables the tier.
	MemoCapacity int
	// FlightSpans sizes the flight recorder of the mounted
	// observability server; <= 0 selects the obs default.
	FlightSpans int
	// Logf receives server diagnostics (learner panics, shutdown);
	// nil discards them.
	Logf func(format string, args ...interface{})

	// ReadHeaderTimeout bounds how long Start's listener waits for a
	// client's request headers — the slow-loris defense. Zero selects
	// DefaultReadHeaderTimeout; negative disables the limit.
	ReadHeaderTimeout time.Duration
	// WriteTimeout bounds a whole request, from the end of its headers
	// to the end of the response write. Zero selects
	// DefaultWriteTimeout; negative disables.
	WriteTimeout time.Duration
	// IdleTimeout bounds keep-alive connection idleness. Zero selects
	// DefaultIdleTimeout; negative disables.
	IdleTimeout time.Duration
	// MaxHeaderBytes caps request header size. Zero selects
	// DefaultMaxHeaderBytes; negative selects the net/http default.
	MaxHeaderBytes int
}

// DefaultMemoCapacity is the shared memo tier bound a zero Config
// selects: a million cached answers, at most about 66 MB when full at
// role-preserving question sizes plus one copy of each identity per
// generation (oracle.SharedMemo; the qhornd_memo_bytes gauge).
const DefaultMemoCapacity = 1 << 20

// HTTP hardening defaults of Start's listener (Config zero values).
const (
	// DefaultReadHeaderTimeout drops clients that trickle request
	// headers (slow loris) within seconds.
	DefaultReadHeaderTimeout = 10 * time.Second
	// DefaultWriteTimeout leaves ample slack for the longest handler:
	// one learner step computed inside the request, then its response
	// write.
	DefaultWriteTimeout = 75 * time.Second
	// DefaultIdleTimeout reclaims abandoned keep-alive connections.
	DefaultIdleTimeout = 120 * time.Second
	// DefaultMaxHeaderBytes bounds header memory per connection; the
	// qhornd API needs no large headers.
	DefaultMaxHeaderBytes = 64 << 10
)

// Server is the qhornd HTTP daemon. Create with New, mount Handler
// (or Start a listener), and Close to abort in-flight sessions.
type Server struct {
	cfg    Config
	obs    *obs.Server
	reg    *obs.Registry
	tracer *obs.Tracer
	mux    *http.ServeMux

	// mu guards the session table, the shutdown flag and the count of
	// admitted runs. Lock order is session.mu, then mu: nothing that
	// holds mu waits on a session.
	mu       sync.RWMutex
	sessions map[string]*session // guarded by mu
	closed   bool                // guarded by mu
	active   int                 // admitted runs not yet ended; guarded by mu
	idle     sync.Cond           // signalled on mu when active drops to 0
	memo     *oracle.SharedMemo  // nil when MemoCapacity < 0

	// Hot-path metric instances, resolved once — Registry lookups take
	// a registry-wide mutex, which the per-answer path must not.
	outstanding   *obs.Gauge
	activeGauge   *obs.Gauge
	answerLatency *obs.Histogram
	httpInFlight  *obs.Gauge
	rejected      *obs.Counter
	outcomes      map[string]*obs.Counter // per-outcome session counters

	idSeq atomic.Uint64

	srv *http.Server
	ln  net.Listener
}

// New builds a server over the config.
func New(cfg Config) *Server {
	o := obs.NewServer(nil, nil, obs.NewFlightRecorder(cfg.FlightSpans))
	s := &Server{
		cfg:      cfg,
		obs:      o,
		reg:      o.Registry(),
		tracer:   o.SpanTracer(),
		sessions: map[string]*session{},
	}
	s.idle.L = &s.mu
	if cfg.MemoCapacity >= 0 {
		capacity := cfg.MemoCapacity
		if capacity == 0 {
			capacity = DefaultMemoCapacity
		}
		s.memo = oracle.NewSharedMemo(capacity, s.reg)
		s.reg.Describe(obs.MetricMemoTierHits, "questions the shared memo tier answered from cache")
		s.reg.Describe(obs.MetricMemoTierMisses, "questions the shared memo tier forwarded and got answered")
		s.reg.Describe(obs.MetricMemoTierEvictions, "answers the full shared memo tier evicted, oldest first")
		s.reg.Describe(obs.MetricMemoTierSize, "answers currently cached by the shared memo tier")
		s.reg.Describe(obs.MetricMemoTierBytes, "bytes the shared memo tier holds, identities included")
	}
	s.reg.Describe(obs.MetricServeSessionsActive, "qhornd sessions with an unfinished learner run")
	s.reg.Describe(obs.MetricServeQuestionsOutstanding, "questions posted to answerers and not yet answered")
	s.reg.Describe(obs.MetricServeAnswerSeconds, "remote answer latency from question posting to delivery")
	s.reg.Describe(obs.MetricServeSessions, "finished session runs by outcome")
	s.reg.Describe(obs.MetricServeRejected, "session creations shed by the max-sessions admission gate")
	s.reg.Describe(obs.MetricServeHTTPSeconds, "qhornd HTTP handler wall time by route, learner compute included")
	s.reg.Describe(obs.MetricServeHTTPInFlight, "HTTP requests currently inside a qhornd handler")
	s.outstanding = s.reg.Gauge(obs.MetricServeQuestionsOutstanding)
	s.activeGauge = s.reg.Gauge(obs.MetricServeSessionsActive)
	s.answerLatency = s.reg.Histogram(obs.MetricServeAnswerSeconds, obs.AnswerLatencyBuckets)
	s.httpInFlight = s.reg.Gauge(obs.MetricServeHTTPInFlight)
	s.rejected = s.reg.Counter(obs.MetricServeRejected)
	s.outcomes = map[string]*obs.Counter{}
	for _, outcome := range []string{"done", "budget", "aborted", "panic"} {
		s.outcomes[outcome] = s.reg.Counter(obs.MetricServeSessions, "outcome", outcome)
	}

	mux := http.NewServeMux()
	s.mux = mux
	s.route("POST /sessions", "create", s.handleCreate)
	s.route("GET /sessions", "list", s.handleList)
	s.sessionRoute("GET /sessions/{id}", "info", s.handleInfo)
	s.route("DELETE /sessions/{id}", "delete", s.handleDelete)
	s.sessionRoute("GET /sessions/{id}/questions", "questions", s.handleQuestions)
	s.sessionRoute("POST /sessions/{id}/answers", "answers", s.handleAnswers)
	s.sessionRoute("GET /sessions/{id}/history", "history", s.handleHistory)
	s.sessionRoute("GET /sessions/{id}/snapshot", "snapshot", s.handleSnapshot)
	s.sessionRoute("POST /sessions/{id}/amend", "amend", s.handleAmend)
	s.route("/", "obs", o.Handler().ServeHTTP)
	return s
}

// route mounts a handler wrapped with the per-route latency histogram
// and the in-flight gauge. The histogram instance is resolved once at
// mount time, so the per-request cost is two gauge moves and one
// histogram observation.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	hist := s.reg.Histogram(obs.MetricServeHTTPSeconds, obs.HTTPLatencyBuckets, "route", label)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.httpInFlight.Add(1)
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
		s.httpInFlight.Add(-1)
	})
}

// sessionRoute mounts a route whose handler acts on the session {id}
// names, answering 404 when the table has none.
func (s *Server) sessionRoute(pattern, label string, h func(http.ResponseWriter, *http.Request, *session)) {
	s.route(pattern, label, func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.RLock()
		sess, ok := s.sessions[id]
		s.mu.RUnlock()
		if !ok {
			writeError(w, http.StatusNotFound, errNoSession(id))
			return
		}
		h(w, r, sess)
	})
}

// Registry returns the server's metrics registry (shared with the
// mounted observability plane).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Memo returns the server's shared cross-session memo tier, or nil
// when the tier is disabled (MemoCapacity < 0).
func (s *Server) Memo() *oracle.SharedMemo { return s.memo }

// Handler returns the server's HTTP handler, for mounting into an
// httptest harness or an existing listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (port 0 picks a free port) and serves in a
// background goroutine until Close, with the hardened timeouts of the
// config applied.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: timeoutOr(s.cfg.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		WriteTimeout:      timeoutOr(s.cfg.WriteTimeout, DefaultWriteTimeout),
		IdleTimeout:       timeoutOr(s.cfg.IdleTimeout, DefaultIdleTimeout),
	}
	if s.cfg.MaxHeaderBytes > 0 {
		s.srv.MaxHeaderBytes = s.cfg.MaxHeaderBytes
	} else if s.cfg.MaxHeaderBytes == 0 {
		s.srv.MaxHeaderBytes = DefaultMaxHeaderBytes
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// timeoutOr maps the Config timeout convention (zero → default,
// negative → disabled) onto http.Server's (zero → disabled).
func timeoutOr(v, def time.Duration) time.Duration {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	default:
		return v
	}
}

// Addr returns the listening address, or "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL, or "" before Start.
func (s *Server) URL() string {
	if s.ln == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops admitting sessions, aborts every in-flight learner, and
// stops the listener. Closing twice is a no-op. Once closed is set no
// run is admitted, so the sweep reaches every admitted run but those of
// creates still launching, which see closed when they insert their
// session and abort their own run. Close returns once every admitted
// run has ended.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	live := s.liveLocked()
	s.mu.Unlock()
	for _, sess := range live {
		sess.abort("server shutting down")
	}
	s.mu.Lock()
	for s.active > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
	var err error
	if s.srv != nil {
		err = s.srv.Close()
		s.srv, s.ln = nil, nil
	}
	return err
}

// liveLocked lists the session table; the caller holds mu.
func (s *Server) liveLocked() []*session {
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	return live
}

// logf forwards to the configured logger.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// admit reserves a run slot, refusing every run once Close has begun.
// A create (relaunch nil) passes the max-sessions gate. An amend's
// relaunch takes back the slot its session was admitted with, as long
// as its session is still in the table, so a run that Close's sweep or
// a delete could miss is never admitted.
func (s *Server) admit(relaunch *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return errClosed
	case relaunch != nil && s.sessions[relaunch.id] != relaunch:
		return errNoSession(relaunch.id)
	case relaunch == nil && s.cfg.MaxSessions > 0 && s.active >= s.cfg.MaxSessions:
		s.rejected.Inc()
		return errAtCapacity
	}
	s.active++
	s.activeGauge.Add(1)
	return nil
}

// sessionExit releases an active slot and records the run outcome.
func (s *Server) sessionExit(outcome string) {
	s.mu.Lock()
	s.activeGauge.Add(-1)
	if s.active--; s.active == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
	if c, ok := s.outcomes[outcome]; ok {
		c.Inc()
	} else {
		s.reg.Counter(obs.MetricServeSessions, "outcome", outcome).Inc()
	}
}

var (
	errClosed     = errors.New("serve: server is shutting down")
	errAtCapacity = errors.New("serve: server at max-sessions capacity")
)

// nextID returns a fresh random session id: 8 bytes of crypto
// randomness, hex, collision-free for any realistic fleet.
func (s *Server) nextID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a process-local sequence; rand.Read failing is
		// effectively unreachable on supported platforms.
		return fmt.Sprintf("s%08d", s.idSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ---- HTTP handlers ----

// maxBodyBytes caps every request body the server reads; larger
// bodies get 413. The largest body a client sends is a create that
// resumes a snapshot. The test suite's snapshots are under 1 KiB, and
// a role-preserving learn of a random 64-variable target snapshots to
// about 0.8 MiB, so 8 MiB leaves ten times the widest universe's need.
const maxBodyBytes = 8 << 20

var errBodyTooLarge = fmt.Errorf("serve: request body exceeds %d bytes", maxBodyBytes)

// maxUserBytes caps a create's user identity, and its snapshot's. The
// shared memo tier holds each identity it has answers for at full
// length, and bounds its answers, not their bytes, so an unbounded
// identity would let each create pin up to maxBodyBytes in the tier.
const maxUserBytes = 256

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v with decodeStrict, writing the 400 or 413 itself and reporting
// false on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := decodeStrict(json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)), v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge)
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
	}
	return false
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	mode := req.Mode
	algStr := req.Algorithm
	given := req.Given
	budget := req.Budget
	user := req.User
	if len(req.User) > maxUserBytes || req.Snapshot != nil && len(req.Snapshot.User) > maxUserBytes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: user identity longer than %d bytes", maxUserBytes))
		return
	}
	var history []byte
	if req.Snapshot != nil {
		snap := req.Snapshot
		if snap.Version != 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unsupported snapshot version %d", snap.Version))
			return
		}
		mode, algStr, given, budget = snap.Mode, snap.Algorithm, snap.Given, snap.Budget
		history = snap.History
		if snap.User != "" {
			user = snap.User
		}
	}
	if mode == "" {
		mode = ModeLearn
	}
	if mode != ModeLearn && mode != ModeVerify {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown mode %q (want learn or verify)", mode))
		return
	}
	var alg run.Algorithm
	if algStr != "" {
		var err error
		if alg, err = run.ParseAlgorithm(algStr); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	// A fresh create with no budget takes the server default (0 or less
	// is unlimited). A snapshot's budget is what remained, so a 0 there
	// resumes exhausted, not with the default.
	if req.Snapshot == nil && budget == 0 {
		budget = s.cfg.Budget
		if budget == 0 {
			budget = -1
		}
	}
	sess, err := newSession(s, mode, alg, req.Variables, given, budget, user, history)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.admit(nil); err != nil {
		status := http.StatusTooManyRequests
		if errors.Is(err, errClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	sess.launchLocked() // not yet shared: no lock needed
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.sessions[sess.id] = sess
	}
	s.mu.Unlock()
	if closed {
		// Close swept the table before this session joined it.
		sess.abort("server shutting down")
		writeError(w, http.StatusServiceUnavailable, errClosed)
		return
	}
	writeJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	// info waits out a session's learner step, so collect the sessions
	// first rather than holding the table lock across the waits.
	s.mu.RLock()
	live := s.liveLocked()
	s.mu.RUnlock()
	list := SessionList{Sessions: make([]SessionInfo, 0, len(live))}
	for _, sess := range live {
		list.Sessions = append(list.Sessions, sess.info())
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errNoSession(id))
		return
	}
	sess.abort("session deleted")
	w.WriteHeader(http.StatusNoContent)
}

// jsonCT is the preallocated Content-Type header value of the pooled
// hot-path responses (direct map assignment skips Set's allocation).
var jsonCT = []string{"application/json"}

func (s *Server) handleQuestions(w http.ResponseWriter, r *http.Request, sess *session) {
	if _, err := parseWait(r.URL.RawQuery); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bp := getBuf()
	b := sess.questionsInto((*bp)[:0])
	w.Header()["Content-Type"] = jsonCT
	w.Write(b) //nolint:errcheck // the write error is the client's disconnect
	*bp = b
	putBuf(bp)
}

// parseWait extracts and validates the wait parameter from a raw query
// with queryParam. No handler waits: every response already reflects
// the learner's next step. The parameter stays for wire compatibility,
// and on POST answers a positive wait selects the fused response.
func parseWait(rawQuery string) (time.Duration, error) {
	ws := queryParam(rawQuery, "wait")
	if ws == "" {
		return 0, nil
	}
	wait, err := time.ParseDuration(ws)
	if err != nil {
		return 0, fmt.Errorf("serve: bad wait %q: %w", ws, err)
	}
	return wait, nil
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request, sess *session) {
	wait, err := parseWait(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bodyBuf := getBuf()
	defer putBuf(bodyBuf)
	body, err := readBody((*bodyBuf)[:0], r.Body, maxBodyBytes)
	*bodyBuf = body[:0]
	if errors.Is(err, errBodyTooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading request body: %w", err))
		return
	}
	scratch := answerPool.Get().(*answerScratch)
	defer func() {
		scratch.pairs = scratch.pairs[:0]
		scratch.rep.unknown = scratch.rep.unknown[:0]
		answerPool.Put(scratch)
	}()
	pairs, fast := parseAnswers(body, scratch.pairs[:0])
	if !fast {
		// The body used escapes, unknown fields, or is malformed: let
		// encoding/json produce the verdict and the error message. An
		// unknown field (the retired {"key","answer"} form among them)
		// is a 400 naming the field, never a silent empty delivery.
		var req AnswerRequest
		if err := decodeStrict(json.NewDecoder(bytes.NewReader(body)), &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
			return
		}
		pairs = pairs[:0]
		for k, a := range req.Answers {
			pairs = append(pairs, wireAnswer{key: []byte(k), answer: a})
		}
	}
	scratch.pairs = pairs
	rep := &scratch.rep
	*rep = answerOutcome{unknown: rep.unknown[:0]}
	sess.deliver(pairs, rep)

	outBuf := getBuf()
	b := appendAnswerReport((*outBuf)[:0], rep, wait > 0)
	if wait > 0 {
		// The fused round trip: render the next batch (or the
		// remainder of this one, on a partial delivery) into the same
		// response.
		b = append(b, `,"next":`...)
		b = sess.questionsInto(b)
		b = append(b, '}')
	}
	w.Header()["Content-Type"] = jsonCT
	w.Write(b) //nolint:errcheck // the write error is the client's disconnect
	*outBuf = b
	putBuf(outBuf)
}

// readBody reads rc into the (pooled) buffer b, growing as needed,
// and fails with errBodyTooLarge once more than limit bytes arrived.
func readBody(b []byte, rc io.Reader, limit int) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rc.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if len(b) > limit {
			return b, errBodyTooLarge
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeStrict decodes the one JSON value of dec's input into v. A
// field v does not declare (a typo, or the retired {"key","answer"}
// answer form) or data after the value is an error naming it, so no
// request runs on the part of its body the server understood.
func decodeStrict(dec *json.Decoder, v interface{}) error {
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

func (s *Server) handleHistory(w http.ResponseWriter, _ *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, sess.history())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request, sess *session) {
	snap, err := sess.snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleAmend(w http.ResponseWriter, r *http.Request, sess *session) {
	var req AmendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := sess.amend(req); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func errNoSession(id string) error {
	return fmt.Errorf("serve: no session %q", id)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the write error is the client's disconnect
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
