package serve

// Allocation-bounded JSON for the qhornd hot path, in both directions.
// The two routes a drive loop hammers — GET /sessions/{id}/questions
// and POST /sessions/{id}/answers — never go through encoding/json in
// the steady state. On the server, responses are appended into pooled
// byte buffers by hand-rolled encoders (question keys and tuples are
// plain ASCII, so the string fast path is branch-per-byte,
// escape-free), and the answer body is parsed by a minimal scanner
// that borrows its keys from the request buffer — the m[string(b)]
// map-lookup form compiles to a no-alloc lookup, so a full delivery
// allocates only when it must retain data past the request. In the
// Client, the answer body is written by hand with json.Marshal's exact
// bytes, and the question batch and answer report are read by the same
// scanner from a pooled buffer. Anything the scanner does not
// recognize (escaped or non-ASCII strings, unknown or repeated fields,
// null, numbers that are not plain ints) falls back to encoding/json
// over the same bytes, property-tested and fuzzed equivalent in
// hotpath_test.go and clientcodec_test.go.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// bufPool recycles request/response byte buffers across requests.
// Buffers that grew beyond maxPooledBuf are dropped so one giant
// history render cannot pin memory forever.
var bufPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

const maxPooledBuf = 1 << 17

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// answerScratch is the pooled per-request state of handleAnswers: the
// parsed key/answer pairs plus the decoded body they alias.
type answerScratch struct {
	pairs []wireAnswer
	rep   answerOutcome
}

var answerPool = sync.Pool{New: func() interface{} { return new(answerScratch) }}

// wireAnswer is one parsed answer; key aliases the request buffer and
// must not be retained past the handler.
type wireAnswer struct {
	key    []byte
	answer bool
}

// appendJSONString appends s, a string or a borrowed byte slice, as a
// JSON string. Question keys, session states and tuple strings are
// plain ASCII, so the fast path is a single scan + copy; anything
// needing escapes takes the stdlib path.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			q, _ := json.Marshal(string(s)) // cold path: exact JSON escaping
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// answerOutcome is the deliver result before encoding. Unknown holds
// slices aliasing the request buffer; the handler encodes the report
// before the buffer returns to the pool.
type answerOutcome struct {
	accepted    int
	duplicate   int
	unknown     [][]byte
	outstanding int
	state       string
	abortReason string
}

// appendAnswerReport renders an answerOutcome as the AnswerReport wire
// JSON, minus the closing brace when open is true (the fused path
// appends ,"next":{...} before closing).
func appendAnswerReport(b []byte, rep *answerOutcome, open bool) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(rep.accepted), 10)
	b = append(b, `,"duplicate":`...)
	b = strconv.AppendInt(b, int64(rep.duplicate), 10)
	if len(rep.unknown) > 0 {
		b = append(b, `,"unknown":[`...)
		for i, k := range rep.unknown {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, k)
		}
		b = append(b, ']')
	}
	b = append(b, `,"outstanding":`...)
	b = strconv.AppendInt(b, int64(rep.outstanding), 10)
	b = append(b, `,"state":`...)
	b = appendJSONString(b, rep.state)
	if rep.abortReason != "" {
		b = append(b, `,"abort_reason":`...)
		b = appendJSONString(b, rep.abortReason)
	}
	if !open {
		b = append(b, '}')
	}
	return b
}

// ---- minimal answer-body scanner ----

// parseAnswers parses the hot-path subset of an AnswerRequest body —
// {"answers":{"<key>":bool,...}} with ASCII strings free of escapes
// and control characters, and no key given twice — appending pairs
// into dst, which the caller passes empty. ok=false means the body
// needs the encoding/json fallback (it may still be valid), so a
// repeated key takes its last value whichever bytes spell the body.
func parseAnswers(body []byte, dst []wireAnswer) (out []wireAnswer, ok bool) {
	p := scanner{buf: body}
	ok = p.object(func(field []byte) bool {
		if string(field) != "answers" {
			return false // unknown field: let encoding/json decide
		}
		return p.object(func(k []byte) bool {
			v, ok := p.boolean()
			if !ok || len(dst) == maxFastAnswers || repeated(dst, k) {
				return false
			}
			dst = append(dst, wireAnswer{key: k, answer: v})
			return true
		})
	})
	return dst, ok && p.end()
}

// maxFastAnswers bounds the pairs parseAnswers takes, and with it the
// quadratic repeated-key check. A longer body is still decoded, by the
// fallback.
const maxFastAnswers = 256

// repeated reports whether key is already among pairs.
func repeated(pairs []wireAnswer, key []byte) bool {
	for _, pa := range pairs {
		if bytes.Equal(pa.key, key) {
			return true
		}
	}
	return false
}

// scanner is a cursor over a JSON body: an answer body on the server,
// a question batch or answer report in the client.
type scanner struct {
	buf []byte
	i   int
}

func (p *scanner) space() {
	for p.i < len(p.buf) {
		switch p.buf[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *scanner) eof() bool { return p.i == len(p.buf) }

// end reports whether only whitespace is left.
func (p *scanner) end() bool {
	p.space()
	return p.eof()
}

func (p *scanner) lit(c byte) bool {
	if p.i < len(p.buf) && p.buf[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *scanner) colon() bool {
	p.space()
	if !p.lit(':') {
		return false
	}
	p.space()
	return true
}

// str parses a JSON string of ASCII with no escapes or control
// characters, returning the borrowed content bytes. Anything else goes to the
// stdlib fallback, which also replaces invalid UTF-8.
func (p *scanner) str() ([]byte, bool) {
	p.space()
	if !p.lit('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.buf) {
		switch c := p.buf[p.i]; {
		case c == '"':
			s := p.buf[start:p.i]
			p.i++
			return s, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false // escapes, non-ASCII: stdlib fallback
		default:
			p.i++
		}
	}
	return nil, false
}

func (p *scanner) boolean() (bool, bool) {
	p.space()
	if bytes.HasPrefix(p.buf[p.i:], jsonTrue) {
		p.i += len(jsonTrue)
		return true, true
	}
	if bytes.HasPrefix(p.buf[p.i:], jsonFalse) {
		p.i += len(jsonFalse)
		return false, true
	}
	return false, false
}

var (
	jsonTrue  = []byte("true")
	jsonFalse = []byte("false")
)

// integer parses a JSON number that is a plain int: an optional minus
// and at most maxIntDigits digits, with no leading zero, fraction or
// exponent. Anything else goes to the stdlib fallback.
func (p *scanner) integer() (int, bool) {
	p.space()
	neg := p.lit('-')
	start := p.i
	v := 0
	for ; p.i < len(p.buf) && '0' <= p.buf[p.i] && p.buf[p.i] <= '9'; p.i++ {
		v = v*10 + int(p.buf[p.i]-'0')
	}
	n := p.i - start
	if n == 0 || n > maxIntDigits || n > 1 && p.buf[start] == '0' || p.lit('.') || p.lit('e') || p.lit('E') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// maxIntDigits is the most decimal digits that always fit an int.
const maxIntDigits = 18 * strconv.IntSize / 64

// object walks a JSON object, calling value with each member's name
// once the cursor stands at the member's value; value must consume it.
// It fails as soon as value does.
func (p *scanner) object(value func(name []byte) bool) bool {
	p.space()
	if !p.lit('{') {
		return false
	}
	p.space()
	if p.lit('}') {
		return true
	}
	for {
		name, ok := p.str()
		if !ok || !p.colon() || !value(name) {
			return false
		}
		p.space()
		if !p.lit(',') {
			return p.lit('}')
		}
	}
}

// fields is object over a struct's members: every name must be one of
// names, given at most once, and value gets its index in names. An
// unknown, case-folded or repeated name fails the walk, leaving it to
// encoding/json's rules.
func (p *scanner) fields(names []string, value func(field int) bool) bool {
	var seen uint
	return p.object(func(name []byte) bool {
		for f, n := range names {
			if string(name) == n {
				if seen&(1<<f) != 0 {
					return false
				}
				seen |= 1 << f
				return value(f)
			}
		}
		return false
	})
}

// array walks a JSON array, calling elem with the cursor at each
// element; elem must consume it. It fails as soon as elem does.
func (p *scanner) array(elem func() bool) bool {
	p.space()
	if !p.lit('[') {
		return false
	}
	p.space()
	if p.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		p.space()
		if !p.lit(',') {
			return p.lit(']')
		}
	}
}

// ---- the client's half ----

// marshalRequest encodes a request body as json.Marshal does, writing
// a non-empty AnswerRequest by hand.
func marshalRequest(in interface{}) ([]byte, error) {
	if req, ok := in.(AnswerRequest); ok && len(req.Answers) > 0 {
		if b, ok := encodeAnswerRequest(req.Answers); ok {
			return b, nil
		}
	}
	return json.Marshal(in)
}

// encodeAnswerRequest writes {"answers":{…}} with the keys sorted:
// the bytes json.Marshal gives for AnswerRequest{Answers: m}. ok=false
// leaves a map with a key json.Marshal HTML-escapes (<, > or &) to it.
func encodeAnswerRequest(m map[string]bool) ([]byte, bool) {
	keys := make([]string, 0, len(m))
	size := len(`{"answers":{}}`)
	for k := range m {
		if strings.ContainsAny(k, "<>&") {
			return nil, false
		}
		keys = append(keys, k)
		size += len(k) + len(`"":false,`)
	}
	slices.Sort(keys)
	b := make([]byte, 0, size)
	b = append(b, `{"answers":{`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
		if m[k] {
			b = append(b, `:true`...)
		} else {
			b = append(b, `:false`...)
		}
	}
	return append(b, "}}"...), true
}

// decodeResponse reads a QuestionBatch or AnswerReport body into out.
// The body goes into a pooled buffer and through the scanner; a body
// the scanner does not take goes to encoding/json over the same bytes,
// which, like a json.Decoder on the stream, ignores data after the
// value.
func decodeResponse(r io.Reader, out interface{}) error {
	bp := getBuf()
	defer putBuf(bp)
	body, err := readBody((*bp)[:0], r, math.MaxInt)
	*bp = body
	if err != nil {
		return err
	}
	if parseResponse(body, out) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(out)
}

// parseResponse decodes body into out, a *QuestionBatch or
// *AnswerReport, when the body is in the scanner's subset: strings
// without escapes or non-ASCII, plain int numbers, no null, and only
// the struct's own field names, each at most once. It reports false,
// leaving out alone, for anything else.
func parseResponse(body []byte, out interface{}) bool {
	d := respPool.Get().(*respDecoder)
	ok := d.decode(body, out)
	d.reset()
	respPool.Put(d)
	return ok
}

// respDecoder is parseResponse's state: the scanner, the body as one
// string, and scratch arrays reused across responses.
type respDecoder struct {
	scanner
	src  string
	strs []string
	qs   []WireQuestion
}

var respPool = sync.Pool{New: func() interface{} { return new(respDecoder) }}

// decode is parseResponse on d. Every decoded string is a substring
// of one copy of the body, so a decode allocates that copy and the
// slices it returns.
func (d *respDecoder) decode(body []byte, out interface{}) bool {
	d.scanner, d.src = scanner{buf: body}, string(body)
	switch out := out.(type) {
	case *QuestionBatch:
		var qb QuestionBatch
		if d.batch(&qb) && d.end() {
			*out = qb
			return true
		}
	case *AnswerReport:
		var rep AnswerReport
		if d.report(&rep) && d.end() {
			*out = rep
			return true
		}
	}
	return false
}

// reset drops every reference d holds to the last body.
func (d *respDecoder) reset() {
	clear(d.strs[:cap(d.strs)])
	clear(d.qs[:cap(d.qs)])
	d.scanner, d.src = scanner{}, ""
}

var (
	reportFields   = []string{"accepted", "duplicate", "unknown", "outstanding", "state", "abort_reason", "next"}
	batchFields    = []string{"state", "questions"}
	questionFields = []string{"key", "tuples"}
)

func (d *respDecoder) report(rep *AnswerReport) bool {
	return d.fields(reportFields, func(f int) (ok bool) {
		switch reportFields[f] {
		case "accepted":
			rep.Accepted, ok = d.integer()
		case "duplicate":
			rep.Duplicate, ok = d.integer()
		case "unknown":
			rep.Unknown, ok = d.texts()
		case "outstanding":
			rep.Outstanding, ok = d.integer()
		case "state":
			rep.State, ok = d.text()
		case "abort_reason":
			rep.AbortReason, ok = d.text()
		case "next":
			rep.Next = new(QuestionBatch)
			ok = d.batch(rep.Next)
		}
		return ok
	})
}

func (d *respDecoder) batch(qb *QuestionBatch) bool {
	return d.fields(batchFields, func(f int) (ok bool) {
		if batchFields[f] == "state" {
			qb.State, ok = d.text()
		} else {
			qb.Questions, ok = d.questions()
		}
		return ok
	})
}

// question reads one WireQuestion object.
func (d *respDecoder) question() (q WireQuestion, ok bool) {
	ok = d.fields(questionFields, func(f int) (ok bool) {
		if questionFields[f] == "key" {
			q.Key, ok = d.text()
		} else {
			q.Tuples, ok = d.texts()
		}
		return ok
	})
	return q, ok
}

func (d *respDecoder) questions() ([]WireQuestion, bool) {
	return arrayOf(&d.scanner, &d.qs, d.question)
}

func (d *respDecoder) texts() ([]string, bool) {
	return arrayOf(&d.scanner, &d.strs, d.text)
}

// arrayOf reads a JSON array with elem, gathering the elements in the
// reused scratch, and returns an exact-size copy: empty but not nil
// for [], as encoding/json gives.
func arrayOf[T any](p *scanner, scratch *[]T, elem func() (T, bool)) ([]T, bool) {
	s := (*scratch)[:0]
	ok := p.array(func() bool {
		v, ok := elem()
		s = append(s, v)
		return ok
	})
	*scratch = s
	if !ok {
		return nil, false
	}
	return append(make([]T, 0, len(s)), s...), true
}

// text reads a string as a substring of the body's one copy.
func (d *respDecoder) text() (string, bool) {
	s, ok := d.str()
	if !ok {
		return "", false
	}
	end := d.i - 1 // the closing quote
	return d.src[end-len(s) : end], true
}

// queryParam returns the value of key in a raw query string, as
// url.ParseQuery(rawQuery).Get(key) gives it. A query without '%',
// '+' or ';' (the bytes url.ParseQuery unescapes or refuses) is read
// in place, without building the url.Values map.
func queryParam(rawQuery, key string) string {
	if strings.ContainsAny(rawQuery, "%+;") {
		vals, _ := url.ParseQuery(rawQuery)
		return vals.Get(key)
	}
	for rawQuery != "" {
		var part string
		part, rawQuery, _ = strings.Cut(rawQuery, "&")
		if k, v, _ := strings.Cut(part, "="); k == key {
			return v
		}
	}
	return ""
}
