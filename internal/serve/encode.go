package serve

// Allocation-bounded JSON for the qhornd hot path. The two routes a
// drive loop hammers — GET /sessions/{id}/questions and POST
// /sessions/{id}/answers — never go through encoding/json in the
// steady state: responses are appended into pooled byte buffers by
// hand-rolled encoders (question keys and tuples are plain ASCII, so
// the string fast path is branch-per-byte, escape-free),
// and the answer body is parsed by a minimal scanner that borrows its
// keys from the request buffer — the m[string(b)] map-lookup form
// compiles to a no-alloc lookup, so a full delivery allocates only
// when it must retain data past the request. Anything the scanner
// does not recognize (escaped strings, unknown fields) falls back to
// encoding/json, property-tested equivalent in hotpath_test.go.

import (
	"bytes"
	"encoding/json"
	"strconv"
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

// appendJSONString appends s as a JSON string. Question keys, session
// states and tuple strings are plain ASCII, so the fast path is a
// single scan + copy; anything needing escapes takes the stdlib path.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			q, _ := json.Marshal(s) // cold path: exact JSON escaping
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONBytes is appendJSONString over a borrowed byte slice.
func appendJSONBytes(b, s []byte) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			q, _ := json.Marshal(string(s))
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
			b = appendJSONBytes(b, k)
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
	p.space()
	if !p.lit('{') {
		return dst, false
	}
	p.space()
	if p.lit('}') {
		p.space()
		return dst, p.eof()
	}
	for {
		field, ok := p.str()
		if !ok || !p.colon() {
			return dst, false
		}
		if !bytes.Equal(field, keyAnswers) {
			return dst, false // unknown field: let encoding/json decide
		}
		if !p.lit('{') {
			return dst, false
		}
		p.space()
		if !p.lit('}') {
			for {
				k, ok := p.str()
				if !ok || !p.colon() {
					return dst, false
				}
				v, ok := p.boolean()
				if !ok || len(dst) == maxFastAnswers || repeated(dst, k) {
					return dst, false
				}
				dst = append(dst, wireAnswer{key: k, answer: v})
				p.space()
				if p.lit(',') {
					p.space()
					continue
				}
				if !p.lit('}') {
					return dst, false
				}
				break
			}
		}
		p.space()
		if p.lit(',') {
			p.space()
			continue
		}
		if !p.lit('}') {
			return dst, false
		}
		break
	}
	p.space()
	return dst, p.eof()
}

var keyAnswers = []byte("answers")

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

// scanner is a cursor over an answer body.
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

// queryParam extracts the raw value of key from a raw query string
// without building the url.Values map. Values on the hot path (wait
// durations) never contain %-escapes; a value that does is
// returned raw and fails its downstream parse like any garbage.
func queryParam(rawQuery, key string) string {
	for len(rawQuery) > 0 {
		part := rawQuery
		if i := indexByte(rawQuery, '&'); i >= 0 {
			part, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		if len(part) > len(key) && part[len(key)] == '=' && part[:len(key)] == key {
			return part[len(key)+1:]
		}
	}
	return ""
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}
