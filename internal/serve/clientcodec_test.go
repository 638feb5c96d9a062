package serve

// White-box coverage of the client's half of the hot-path codec
// (encode.go): the hand-written answer body must be json.Marshal's
// bytes, and the question-batch and answer-report decoders must give
// encoding/json's result whenever they take a body.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// decodeBoth decodes body into a fresh T on the fast path and through
// encoding/json, reporting whether the fast path took it.
func decodeBoth[T any](body []byte) (fast, std T, took bool, stdErr error) {
	took = parseResponse(body, &fast)
	stdErr = json.NewDecoder(bytes.NewReader(body)).Decode(&std)
	return fast, std, took, stdErr
}

// checkResponse is FuzzResponseBody's property for one target type: a
// body the fast path takes is one encoding/json decodes to a deeply
// equal value, nil-versus-empty slices and next presence included; a
// body it refuses leaves the target zero.
func checkResponse[T any](t *testing.T, body []byte) bool {
	t.Helper()
	fast, std, took, err := decodeBoth[T](body)
	if !took {
		var zero T
		if !reflect.DeepEqual(fast, zero) {
			t.Fatalf("fast path refused %q but wrote %+v", body, fast)
		}
		return false
	}
	if err != nil {
		t.Fatalf("fast path took %q, encoding/json rejects it: %v", body, err)
	}
	if !reflect.DeepEqual(fast, std) {
		t.Fatalf("body %q: fast path gives %#v, encoding/json %#v", body, fast, std)
	}
	return true
}

// FuzzResponseBody is the differential check of the client's fast
// decoders against encoding/json over arbitrary bodies, decoded both
// as a QuestionBatch and as an AnswerReport. Seeds live in
// testdata/fuzz/FuzzResponseBody; locally:
//
//	go test -run '^$' -fuzz '^FuzzResponseBody$' -fuzztime 30s ./internal/serve
func FuzzResponseBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkResponse[QuestionBatch](t, body)
		checkResponse[AnswerReport](t, body)
	})
}

// TestResponseFastPathTakesServerOutput pins that the bodies the
// server renders (the batch, an empty batch, plain, unknown, aborted
// and fused reports) all take the fast path, and that the shapes it
// leaves to encoding/json still decode as encoding/json decodes them.
func TestResponseFastPathTakesServerOutput(t *testing.T) {
	sess, _ := awaitingSession(t, "{1100, 0011}", "{1000}", "{0110, 1001, 1111}")
	batch := sess.questionsInto(nil)
	done := (&session{state: StateDone}).questionsInto(nil)
	fused := func(rep answerOutcome, next []byte) []byte {
		b := append(appendAnswerReport(nil, &rep, true), `,"next":`...)
		return append(append(b, next...), '}')
	}
	unknown := answerOutcome{accepted: 1, duplicate: 2, unknown: [][]byte{[]byte("0,1"), {}}, outstanding: 1, state: StateAwaiting}
	aborted := answerOutcome{unknown: [][]byte{[]byte("3")}, state: StateFailed, abortReason: "session deleted"}

	for _, body := range [][]byte{batch, done} {
		if !checkResponse[QuestionBatch](t, body) {
			t.Errorf("fast path refused the server's batch %s", body)
		}
	}
	for _, body := range [][]byte{
		appendAnswerReport(nil, &answerOutcome{accepted: 3, state: StateDone}, false),
		appendAnswerReport(nil, &unknown, false),
		fused(answerOutcome{accepted: 3, outstanding: 3, state: StateAwaiting}, batch),
		fused(aborted, done),
	} {
		if !checkResponse[AnswerReport](t, body) {
			t.Errorf("fast path refused the server's report %s", body)
		}
	}
	if rep, _, _, _ := decodeBoth[AnswerReport](fused(aborted, done)); rep.Next == nil || rep.Next.Questions == nil {
		t.Errorf("fused report decoded to %+v, want a next batch with an empty, non-nil question list", rep)
	}

	for _, body := range []string{
		`{"state":"awaiting-answers","questions":[{"key":"a\u0031","tuples":["10"]}]}`,
		"{\"state\":\"d\xc3\xb6ne\",\"questions\":[]}",
		`{"state":"done","questions":[],"extra":1}`,
		`{"STATE":"done","questions":[]}`,
		`{"state":"done","questions":[{"key":"1","tuples":["10"]}],"questions":[]}`,
		`{"state":"done","questions":null}`,
		`{"accepted":1,"state":"done","next":null}`,
		`{"accepted":1.0,"state":"done"}`,
		`{"accepted":1e2,"state":"done"}`,
		`{"accepted":01,"state":"done"}`,
		`{"accepted":12345678901234567890,"state":"done"}`,
		`{"state":"done","questions":[]} trailing`,
	} {
		q := checkResponse[QuestionBatch](t, []byte(body))
		r := checkResponse[AnswerReport](t, []byte(body))
		if q || r {
			t.Errorf("fast path took %s, want the encoding/json fallback", body)
		}
	}
}

// TestAnswerRequestMatchesMarshal pins the hand-written answer body to
// json.Marshal's bytes, escaped and non-ASCII keys included, and checks
// that the server's parseAnswers takes every plain-ASCII body on its
// fast path and leaves the rest to its fallback.
func TestAnswerRequestMatchesMarshal(t *testing.T) {
	for _, c := range []struct {
		answers map[string]bool
		fast    bool // parseAnswers takes the encoded body
	}{
		{map[string]bool{"0,1": true}, true},
		{map[string]bool{"3,c": true, "1": false, "6,9,f": true, "": false}, true},
		{map[string]bool{"b": true, "a": false, "ab": true, "B": true}, true},
		{map[string]bool{`quote"key`: true, `back\slash`: false, "tab\tkey": true}, false},
		{map[string]bool{"µs": true, "試": false, "emoji 🎲": true}, false},
		{map[string]bool{"line\u2028sep": true, "bad\xffutf8": false}, false},
		{map[string]bool{"a<b": true, "a&b": false, "c>d": true}, false},
	} {
		want, err := json.Marshal(AnswerRequest{Answers: c.answers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := marshalRequest(AnswerRequest{Answers: c.answers})
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("marshalRequest(%v) = %s, %v; json.Marshal %s", c.answers, got, err, want)
		}
		if _, ok := parseAnswers(got, nil); ok != c.fast {
			t.Errorf("parseAnswers(%s) fast=%v, want %v", got, ok, c.fast)
		}
	}
	for _, in := range []interface{}{AnswerRequest{}, AnswerRequest{Answers: map[string]bool{}}, CreateRequest{Variables: 3}} {
		want, _ := json.Marshal(in)
		if got, err := marshalRequest(in); err != nil || !bytes.Equal(got, want) {
			t.Errorf("marshalRequest(%+v) = %s, %v; json.Marshal %s", in, got, err, want)
		}
	}
}

// TestFusedReportDecodeAllocs pins the fast decode of a typical fused
// report to what it returns: one string holding every decoded string,
// the next batch, its question list and each question's tuple list.
func TestFusedReportDecodeAllocs(t *testing.T) {
	sess, qs := awaitingSession(t, "{1100, 0011}", "{1000}", "{0110, 1001, 1111}")
	rep := answerOutcome{accepted: 3, outstanding: len(qs), state: StateAwaiting}
	body := append(appendAnswerReport(nil, &rep, true), `,"next":`...)
	body = append(sess.questionsInto(body), '}')

	d := new(respDecoder)
	want := float64(3 + len(qs))
	if allocs := testing.AllocsPerRun(1000, func() {
		var r AnswerReport
		if !d.decode(body, &r) {
			t.Fatalf("fast path refused %s", body)
		}
		d.reset()
	}); allocs != want {
		t.Errorf("decoding a fused report of %d questions allocates %.1f times, want %.0f", len(qs), allocs, want)
	}
}
