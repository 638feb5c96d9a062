package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qhorn/internal/obs"
	qsession "qhorn/internal/session"
)

// FuzzSnapshotResume posts a create that resumes a client-supplied
// snapshot: its universe width, mode, algorithm, given query, budget
// and the JSON text of its history entries are all fuzzed. Every body
// gets a 400 or a 201. A created session's snapshot history must
// decode and re-encode to the same JSON, and once the session is
// deleted and the server closed, no session is active and no question
// outstanding.
func FuzzSnapshotResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, variables int, mode, algorithm string, budget int, given, entries string) {
		srv := New(Config{MemoCapacity: -1})
		h := srv.Handler()
		do := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec
		}
		str := func(s string) []byte { b, _ := json.Marshal(s); return b }
		body := fmt.Sprintf(`{"snapshot":{"qhornd_snapshot":1,"mode":%s,"algorithm":%s,"given":%s,"budget":%d,`+
			`"history":{"variables":%d,"entries":%s}}}`, str(mode), str(algorithm), str(given), budget, variables, entries)

		rec := do("POST", "/sessions", body)
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusCreated:
			var info SessionInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("create answered 201 with %q: %v", rec.Body, err)
			}
			rec = do("GET", "/sessions/"+info.ID+"/snapshot", "")
			var snap Snapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("snapshot: %d %q (%v)", rec.Code, rec.Body, err)
			}
			hist, u, err := qsession.DecodeJSON(snap.History, nil)
			if err != nil {
				t.Fatalf("the session's own snapshot does not decode: %v\n%s", err, snap.History)
			}
			// The server indents its responses, so the two encodings are
			// compared without their white space.
			again, err := hist.EncodeJSON(u)
			var want, got bytes.Buffer
			if err == nil {
				err = errors.Join(json.Compact(&want, snap.History), json.Compact(&got, again))
			}
			if err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("snapshot history re-encodes to\n%s\nnot\n%s (%v)", got.Bytes(), want.Bytes(), err)
			}
			if rec = do("DELETE", "/sessions/"+info.ID, ""); rec.Code != http.StatusNoContent {
				t.Fatalf("delete: %d %q", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("create answered %d %q, want 400 or 201\n%s", rec.Code, rec.Body, body)
		}
		srv.Close()
		for _, name := range []string{obs.MetricServeSessionsActive, obs.MetricServeQuestionsOutstanding} {
			if v := srv.Registry().Gauge(name).Value(); v != 0 {
				t.Fatalf("%s = %v after Close, want 0", name, v)
			}
		}
	})
}
