package serve

// White-box coverage of the allocation-bounded hot path (encode.go):
// the CI-gated allocation budgets on question encode (the batch
// render), answer decode and answer report encode, plus property tests
// pinning the hand-rolled JSON subset to encoding/json semantics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/run"
)

// awaitingSession builds a server-attached session with one published
// batch of outstanding questions. The learner stand-in is a goroutine
// that asks the batch through the exchange and then ends its run; the
// rendezvous publishes the batch as launchLocked would. The cleanup
// delivers the batch, which lets the stand-in finish.
func awaitingSession(t *testing.T, tuples ...string) (*session, []boolean.Set) {
	t.Helper()
	srv := New(Config{MemoCapacity: -1})
	sess, err := newSession(srv, ModeLearn, run.Qhorn1, 4, "", -1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	u := sess.u
	qs := make([]boolean.Set, len(tuples))
	for i, s := range tuples {
		set, err := boolean.ParseSet(u, s)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = set
	}
	sess.ask, sess.reply = make(chan []boolean.Set), make(chan []bool)
	go func(ask chan []boolean.Set) {
		defer close(ask)
		exchange{sess}.AskBatch(qs)
	}(sess.ask)
	sess.mu.Lock()
	sess.awaitLocked()
	st := sess.state
	sess.mu.Unlock()
	if st != StateAwaiting {
		t.Fatalf("batch never published; state %q", st)
	}
	t.Cleanup(func() {
		pairs := make([]wireAnswer, 0, len(qs))
		for _, q := range qs {
			pairs = append(pairs, wireAnswer{key: []byte(q.Key()), answer: true})
		}
		var rep answerOutcome
		sess.deliver(pairs, &rep)
	})
	return sess, qs
}

// TestServeHotPathAllocs is the CI allocation gate on the serving hot
// path: rendering the outstanding batch (the questions response body),
// parsing an answer body, and rendering an answer report must not
// allocate in the steady state, given pooled buffers at capacity.
func TestServeHotPathAllocs(t *testing.T) {
	sess, qs := awaitingSession(t, "{1100, 0011}", "{1000}", "{0110, 1001, 1111}")

	buf := make([]byte, 0, 1<<14)
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = sess.questionsInto(buf[:0])
	}); allocs != 0 {
		t.Errorf("questionsInto allocates %.1f times per render, want 0", allocs)
	}

	var body []byte
	body = append(body, `{"answers":{`...)
	for i, q := range qs {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendJSONString(body, q.Key())
		body = append(body, `:true`...)
	}
	body = append(body, `}}`...)
	pairs := make([]wireAnswer, 0, len(qs))
	if allocs := testing.AllocsPerRun(1000, func() {
		var ok bool
		if pairs, ok = parseAnswers(body, pairs[:0]); !ok {
			t.Fatal("fast parser refused a canonical answer body")
		}
	}); allocs != 0 {
		t.Errorf("parseAnswers allocates %.1f times per body, want 0", allocs)
	}

	rep := answerOutcome{accepted: 3, duplicate: 1, outstanding: 2, state: StateAwaiting}
	out := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(1000, func() {
		out = appendAnswerReport(out[:0], &rep, false)
	}); allocs != 0 {
		t.Errorf("appendAnswerReport allocates %.1f times per report, want 0", allocs)
	}
}

// TestQuestionsIntoMatchesWire pins the hand-rolled QuestionBatch
// encoder to the wire struct: decoding its output through
// encoding/json yields exactly the batch the session holds.
func TestQuestionsIntoMatchesWire(t *testing.T) {
	sess, qs := awaitingSession(t, "{1100, 0011}", "{1000}")
	b := sess.questionsInto(nil)
	var qb QuestionBatch
	if err := json.Unmarshal(b, &qb); err != nil {
		t.Fatalf("questionsInto produced invalid JSON %q: %v", b, err)
	}
	if qb.State != StateAwaiting {
		t.Fatalf("state %q, want %q", qb.State, StateAwaiting)
	}
	if len(qb.Questions) != len(qs) {
		t.Fatalf("%d questions, want %d", len(qb.Questions), len(qs))
	}
	for i, q := range qs {
		if qb.Questions[i].Key != q.Key() {
			t.Fatalf("question %d key %q, want %q", i, qb.Questions[i].Key, q.Key())
		}
		want := formatTuples(sess.u, q)
		if len(qb.Questions[i].Tuples) != len(want) {
			t.Fatalf("question %d: %d tuples, want %d", i, len(qb.Questions[i].Tuples), len(want))
		}
		for j := range want {
			if qb.Questions[i].Tuples[j] != want[j] {
				t.Fatalf("question %d tuple %d: %q, want %q", i, j, qb.Questions[i].Tuples[j], want[j])
			}
		}
	}
}

// TestAppendAnswerReportMatchesWire pins the report encoder to the
// AnswerReport wire struct, including the open form the fused path
// extends with a next batch.
func TestAppendAnswerReportMatchesWire(t *testing.T) {
	rep := answerOutcome{
		accepted:    2,
		duplicate:   1,
		unknown:     [][]byte{[]byte("aa,bb"), []byte("cc")},
		outstanding: 4,
		state:       StateAwaiting,
		abortReason: "",
	}
	var got AnswerReport
	if err := json.Unmarshal(appendAnswerReport(nil, &rep, false), &got); err != nil {
		t.Fatal(err)
	}
	if got.Accepted != 2 || got.Duplicate != 1 || got.Outstanding != 4 || got.State != StateAwaiting {
		t.Fatalf("report mismatch: %+v", got)
	}
	if len(got.Unknown) != 2 || got.Unknown[0] != "aa,bb" || got.Unknown[1] != "cc" {
		t.Fatalf("unknown mismatch: %v", got.Unknown)
	}
	rep.abortReason = "server shutting down"
	open := appendAnswerReport(nil, &rep, true)
	closed := append(append(open, `,"next":{"state":"failed","questions":[]}`...), '}')
	if err := json.Unmarshal(closed, &got); err != nil {
		t.Fatalf("open report + next failed to parse: %v", err)
	}
	if got.AbortReason != "server shutting down" || got.Next == nil || got.Next.State != StateFailed {
		t.Fatalf("fused report mismatch: %+v", got)
	}
}

// TestParseAnswersMatchesStdlib drives the fast scanner against
// encoding/json over generated bodies: whenever the scanner accepts a
// body, its pairs must equal the stdlib decode; bodies it refuses
// must be exactly the ones that exercise escapes, unknown fields or
// malformed syntax.
func TestParseAnswersMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	keyAlphabet := []string{"a1,b2", "ff", "0,1,2", "deadbeef", "k" + strings.Repeat("0", 40)}
	for trial := 0; trial < 500; trial++ {
		answers := map[string]bool{}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			answers[keyAlphabet[rng.Intn(len(keyAlphabet))]+fmt.Sprint(i)] = rng.Intn(2) == 0
		}
		req := AnswerRequest{Answers: answers}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		pairs, ok := parseAnswers(body, nil)
		if !ok {
			t.Fatalf("trial %d: fast parser refused canonical body %s", trial, body)
		}
		want := answers
		if len(pairs) != len(want) {
			t.Fatalf("trial %d: %d pairs from %s, want %d", trial, len(pairs), body, len(want))
		}
		for _, p := range pairs {
			if a, ok := want[string(p.key)]; !ok || a != p.answer {
				t.Fatalf("trial %d: pair %q=%v not in %v", trial, p.key, p.answer, want)
			}
		}
	}

	// Bodies the fast path must refuse — escapes, unknown fields (the
	// retired single-question form among them), malformed JSON — and
	// leave to encoding/json.
	for _, body := range []string{
		"{\"answers\":{\"a\\u0031\":true}}",
		`{"answers":{"a":true},"extra":1}`,
		`{"answers":{"a":maybe}}`,
		`{"answers":["a"]}`,
		`{"key":"a"}`,
		`{"key":"a","answer":true}`,
		`{"answer":true}`,
		`{"answers":{"a":true}`,
		`{"answers":{"a":true}} trailing`,
		`{"answers":{"a":true,"a":false}}`,
		`{"answers":{"a":true},"answers":{"a":false}}`,
		"{\"answers\":{\"\xff\":true}}",
	} {
		if _, ok := parseAnswers([]byte(body), nil); ok {
			t.Errorf("fast parser accepted %q, want fallback", body)
		}
	}
	// The empty object is fine and empty.
	if pairs, ok := parseAnswers([]byte(" { } "), nil); !ok || len(pairs) != 0 {
		t.Errorf("empty object: ok=%v pairs=%v", ok, pairs)
	}
	// The empty-set question's canonical key is "".
	if pairs, ok := parseAnswers([]byte(`{"answers":{"":true}}`), nil); !ok || len(pairs) != 1 || len(pairs[0].key) != 0 || !pairs[0].answer {
		t.Errorf("empty key: ok=%v pairs=%v, want one empty-key pair", ok, pairs)
	}
}

// FuzzAnswerBody is the differential check of the fast answer parser
// against the stdlib fallback over arbitrary bodies: neither panics, a
// body the fast path takes is one strict encoding/json accepts, and
// both give the same key→answer map once deliver's rule (the first
// pair of a key applies) is applied to the fast path's pairs. Seeds
// live in testdata/fuzz/FuzzAnswerBody; locally:
//
//	go test -run '^$' -fuzz '^FuzzAnswerBody$' -fuzztime 30s ./internal/serve
func FuzzAnswerBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		pairs, fast := parseAnswers(body, nil)
		var req AnswerRequest
		err := decodeStrict(json.NewDecoder(bytes.NewReader(body)), &req)
		if !fast {
			return
		}
		if err != nil {
			t.Fatalf("fast path took %q, encoding/json rejects it: %v", body, err)
		}
		delivered := map[string]bool{}
		for _, pa := range pairs {
			if _, dup := delivered[string(pa.key)]; !dup {
				delivered[string(pa.key)] = pa.answer
			}
		}
		if !maps.Equal(delivered, req.Answers) {
			t.Fatalf("body %q: fast path delivers %v, encoding/json %v", body, delivered, req.Answers)
		}
	})
}

// TestAppendJSONStringMatchesStdlib pins the string fast path (and
// its escape fallback) to json.Marshal for adversarial inputs.
func TestAppendJSONStringMatchesStdlib(t *testing.T) {
	cases := []string{
		"", "plain", "a1,b2", "with space", `quote"inside`, `back\slash`,
		"control\x01char", "tab\there", "unicode µ Ω 試", "emoji 🎲",
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		if err := json.Unmarshal(appendJSONString(nil, s), &got); err != nil {
			t.Fatalf("appendJSONString(%q) produced invalid JSON: %v", s, err)
		}
		var wantS string
		if err := json.Unmarshal(want, &wantS); err != nil {
			t.Fatal(err)
		}
		if got != wantS {
			t.Fatalf("appendJSONString(%q) decodes to %q, stdlib %q", s, got, wantS)
		}
	}
}

// TestQueryParam pins the allocation-free query extractor to net/url.
func TestQueryParam(t *testing.T) {
	for _, raw := range []string{
		"", "wait=2s", "wait=2s&other=1", "other=1&wait=250ms", "other=x",
		"wait=", "waitx=3s", "other=0", "a=b&wait=30s&c=d", "wait",
		"wait&wait=2s", "w%61it=1s", "wait=1s;x=2", "wait=%zz&wait=1s", "=x&wait=",
	} {
		want, _ := url.ParseQuery(raw) // an error only drops the part it names
		for _, key := range []string{"wait", "other"} {
			if got := queryParam(raw, key); got != want.Get(key) {
				t.Errorf("queryParam(%q, %q) = %q, url.Values %q", raw, key, got, want.Get(key))
			}
		}
	}
}

// FuzzQueryParam checks queryParam and parseWait against url.ParseQuery
// over arbitrary raw queries: queryParam gives what url.Values.Get
// gives, and parseWait accepts the wait that value parses to and
// refuses the one it does not. Seeds live in
// testdata/fuzz/FuzzQueryParam; locally:
//
//	go test -run '^$' -fuzz '^FuzzQueryParam$' -fuzztime 30s ./internal/serve
func FuzzQueryParam(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		vals, _ := url.ParseQuery(raw)
		for _, key := range []string{"wait", "other"} {
			if got := queryParam(raw, key); got != vals.Get(key) {
				t.Fatalf("queryParam(%q, %q) = %q, url.Values %q", raw, key, got, vals.Get(key))
			}
		}
		var want time.Duration
		var wantErr error
		if ws := vals.Get("wait"); ws != "" {
			want, wantErr = time.ParseDuration(ws)
		}
		if got, err := parseWait(raw); got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("parseWait(%q) = %v, %v; url.ParseQuery and time.ParseDuration give %v, %v", raw, got, err, want, wantErr)
		}
	})
}

// TestOversizedBodies checks the request-body cap: a create or an
// answers POST past maxBodyBytes is refused with 413, while a body of
// exactly maxBodyBytes is still read and judged on its content.
func TestOversizedBodies(t *testing.T) {
	ts := httptest.NewServer(New(Config{MemoCapacity: -1}).Handler())
	defer ts.Close()
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	pad := strings.Repeat("x", maxBodyBytes)
	if code, msg := post("/sessions", `{"variables":3,"given":"`+pad+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized create: %d %.200s, want 413", code, msg)
	}

	code, msg := post("/sessions", `{"variables":3}`)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, msg)
	}
	var info SessionInfo
	if err := json.Unmarshal([]byte(msg), &info); err != nil {
		t.Fatal(err)
	}
	if code, msg := post("/sessions/"+info.ID+"/answers", `{"answers":{"`+pad+`":true}}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized answers: %d %.200s, want 413", code, msg)
	}
	// A body at the cap is read in full and judged on its content.
	atCap := `{"answers":{"` + pad[:maxBodyBytes-len(`{"answers":{"":true}}`)] + `":true}}`
	if code, msg := post("/sessions/"+info.ID+"/answers", atCap); code != http.StatusOK || !strings.Contains(msg, `"accepted":0`) {
		t.Errorf("answers at the cap: %d %.200s, want 200 with nothing accepted", code, msg)
	}
}

// TestHardenedTimeoutDefaults checks the Config→http.Server timeout
// mapping: zero selects the hardened defaults, negative disables.
func TestHardenedTimeoutDefaults(t *testing.T) {
	srv := New(Config{MemoCapacity: -1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := srv.srv
	if hs.ReadHeaderTimeout != DefaultReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout %v, want %v", hs.ReadHeaderTimeout, DefaultReadHeaderTimeout)
	}
	if hs.WriteTimeout != DefaultWriteTimeout {
		t.Errorf("WriteTimeout %v, want %v", hs.WriteTimeout, DefaultWriteTimeout)
	}
	if hs.IdleTimeout != DefaultIdleTimeout {
		t.Errorf("IdleTimeout %v, want %v", hs.IdleTimeout, DefaultIdleTimeout)
	}
	if hs.MaxHeaderBytes != DefaultMaxHeaderBytes {
		t.Errorf("MaxHeaderBytes %d, want %d", hs.MaxHeaderBytes, DefaultMaxHeaderBytes)
	}

	srv2 := New(Config{MemoCapacity: -1, ReadHeaderTimeout: -1, WriteTimeout: -1, IdleTimeout: -1, MaxHeaderBytes: -1})
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	hs2 := srv2.srv
	if hs2.ReadHeaderTimeout != 0 || hs2.WriteTimeout != 0 || hs2.IdleTimeout != 0 || hs2.MaxHeaderBytes != 0 {
		t.Errorf("negative config should disable limits, got %v/%v/%v/%d",
			hs2.ReadHeaderTimeout, hs2.WriteTimeout, hs2.IdleTimeout, hs2.MaxHeaderBytes)
	}
}
