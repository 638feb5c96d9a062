package serve_test

// Black-box coverage of the serving-plane hardening (header-read
// timeouts, header-size caps) and of the batched and fused wire
// modes: both must reproduce the direct learn bit-for-bit, and fusing
// must never add round trips.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/difffuzz"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	engine "qhorn/internal/run"
	"qhorn/internal/serve"
)

// TestSlowHeaderClientDropped is the hardening regression test: a
// client that opens a connection and trickles the request header must
// be cut off by ReadHeaderTimeout instead of pinning a connection
// forever.
func TestSlowHeaderClientDropped(t *testing.T) {
	srv, _ := startServer(t, serve.Config{MemoCapacity: -1, ReadHeaderTimeout: 150 * time.Millisecond})
	addr := strings.TrimPrefix(srv.URL(), "http://")

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: the request line and one header, never the
	// terminating blank line.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: qhornd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if err != nil {
			break // server dropped us (EOF or reset)
		}
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("slow-header connection survived %v, want drop near the 150ms ReadHeaderTimeout", waited)
	}

	// A well-formed request on a fresh connection still works.
	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatalf("healthy request after slow-client drop: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after slow-client drop", resp.StatusCode)
	}
}

// TestOversizedHeaderRejected checks the MaxHeaderBytes cap: a header
// past the default 64 KiB budget must be refused, not buffered.
func TestOversizedHeaderRejected(t *testing.T) {
	srv, _ := startServer(t, serve.Config{MemoCapacity: -1})
	req, err := http.NewRequest(http.MethodGet, srv.URL()+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("q", serve.DefaultMaxHeaderBytes*2))
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("oversized header got %d, want %d or a dropped connection",
				resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
		}
	}
	// err != nil is also acceptable: the server may hang up mid-write.
}

// TestWireModeIdentity drives the same hidden targets through every
// wire mode and requires each run to be bit-identical to the direct
// learn — same learned query, history, and live-question count.
func TestWireModeIdentity(t *testing.T) {
	_, c := startServer(t, serve.Config{MemoCapacity: -1})
	n := 3
	if !testing.Short() {
		n = 8
	}
	for _, wire := range []serve.WireMode{serve.WireBatched, serve.WireFused} {
		t.Run(wire.String(), func(t *testing.T) {
			for _, target := range targets(difffuzz.ClassQhorn1, 31, n) {
				driveIdentity(t, c, target, engine.Qhorn1, serve.DriveOptions{Wire: wire})
			}
			for _, target := range targets(difffuzz.ClassRP, 32, n) {
				driveIdentity(t, c, target, engine.RolePreserving, serve.DriveOptions{Wire: wire})
			}
		})
	}
}

// TestWireModeRoundTrips measures HTTP round trips per wire mode on a
// role-preserving learn: the fused wire must not exceed the batched
// wire.
func TestWireModeRoundTrips(t *testing.T) {
	srv, _ := startServer(t, serve.Config{MemoCapacity: -1})
	// A wide role-preserving target: six head variables, so the
	// per-head body searches run as six concurrent streams and every
	// Drive round forms a six-question batch — the shape the batched
	// wire exists for.
	u := boolean.MustUniverse(12)
	target := query.MustParse(u, "∀x1x2 → x7 ∀x1x3 → x8 ∀x2x3 → x9 ∀x4x5 → x10 ∀x4x6 → x11 ∀x5x6 → x12")
	rts := map[serve.WireMode]int64{}
	for _, wire := range []serve.WireMode{serve.WireBatched, serve.WireFused} {
		c := serve.NewClient(srv.URL()) // fresh counter per mode
		info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: engine.RolePreserving.String()})
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Drive(info.ID, serve.AnswererFor(target.U, oracle.Target(target)), serve.DriveOptions{Wire: wire})
		if err != nil {
			t.Fatal(err)
		}
		if final.State != serve.StateDone {
			t.Fatalf("wire %s ended %q", wire, final.State)
		}
		rts[wire] = c.RoundTrips()
	}
	t.Logf("round trips: batched=%d fused=%d", rts[serve.WireBatched], rts[serve.WireFused])
	if rts[serve.WireFused] > rts[serve.WireBatched] {
		t.Errorf("fused wire made %d round trips, batched %d — fusing must not add trips",
			rts[serve.WireFused], rts[serve.WireBatched])
	}
}

// TestAnswerBatchWire exercises the batched answer POST and the fused
// answers?wait= form at the HTTP level, independent of the Client.
func TestAnswerBatchWire(t *testing.T) {
	srv, c := startServer(t, serve.Config{MemoCapacity: -1})
	target := targets(difffuzz.ClassQhorn1, 34, 1)[0]
	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: engine.Qhorn1.String()})
	if err != nil {
		t.Fatal(err)
	}
	ans := serve.AnswererFor(target.U, oracle.Target(target))
	qb, err := c.Questions(info.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if qb.State != serve.StateAwaiting || len(qb.Questions) == 0 {
		t.Fatalf("state %q with %d questions, want an outstanding batch", qb.State, len(qb.Questions))
	}
	// However a valid body spells its answers, it is a delivery: a key
	// with a \u-escaped character answers its question, "" is the
	// empty-set question's key, and whitespace around an empty object is
	// an empty delivery.
	deliver := func(query, body string) serve.AnswerReport {
		t.Helper()
		code, raw := postRaw(t, srv.URL()+"/sessions/"+info.ID+"/answers"+query, body)
		var rep serve.AnswerReport
		if err := json.Unmarshal(raw, &rep); err != nil || code != http.StatusOK {
			t.Fatalf("answers%s %s: %d %s", query, body, code, raw)
		}
		return rep
	}
	first := qb.Questions[0]
	a, err := ans(first)
	if err != nil {
		t.Fatal(err)
	}
	escaped := fmt.Sprintf(`\u%04x`, first.Key[0]) + first.Key[1:]
	if rep := deliver("", fmt.Sprintf(`{"answers":{"%s":%v}}`, escaped, a)); rep.Accepted != 1 || len(rep.Unknown) != 0 {
		t.Fatalf("escaped key %s: report %+v, want its question accepted", escaped, rep)
	}
	// A key given twice takes its last value, whether the fast path or
	// encoding/json (here forced by one escaped spelling) reads the body.
	if len(qb.Questions) < 4 {
		t.Fatalf("first batch has %d questions; the cases below need 4", len(qb.Questions))
	}
	lastWins := map[string]bool{}
	for i, q := range qb.Questions[1:3] {
		a, err := ans(q)
		if err != nil {
			t.Fatal(err)
		}
		spelled := q.Key
		if i == 1 {
			spelled = fmt.Sprintf(`\u%04x`, q.Key[0]) + q.Key[1:]
		}
		body := fmt.Sprintf(`{"answers":{"%s":%v,"%s":%v}}`, spelled, !a, q.Key, a)
		if rep := deliver("", body); rep.Accepted != 1 || rep.Duplicate != 0 || len(rep.Unknown) != 0 {
			t.Fatalf("repeated key %s: report %+v, want one accepted answer", body, rep)
		}
		lastWins[strings.Join(q.Tuples, " ")] = a
	}
	for _, q := range qb.Questions {
		if q.Key == "" {
			t.Fatal("the empty set is outstanding; pick a target whose first batch omits it")
		}
	}
	if rep := deliver("", `{"answers":{"":true}}`); rep.Accepted != 0 || len(rep.Unknown) != 1 || rep.Unknown[0] != "" {
		t.Fatalf("empty key: report %+v, want one unknown empty key", rep)
	}
	// 250%C2%B5s is the wait Client sends for 250µs (url.QueryEscape).
	resp, err := http.Get(srv.URL() + "/sessions/" + info.ID + "/questions?wait=250%C2%B5s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET questions?wait=250%%C2%%B5s: %d", resp.StatusCode)
	}
	rep := deliver("?wait=250%C2%B5s", " { } ")
	if rep.Accepted != 0 || rep.Duplicate != 0 || len(rep.Unknown) != 0 || rep.Next == nil || len(rep.Next.Questions) != len(qb.Questions)-3 {
		t.Fatalf("empty fused delivery: report %+v, want nothing delivered and the rest of the batch next", rep)
	}
	qb = *rep.Next
	for qb.State == serve.StateAwaiting && len(qb.Questions) > 0 {
		// Answer the whole batch with one fused POST built by hand.
		body := strings.Builder{}
		body.WriteString(`{"answers":{`)
		for i, q := range qb.Questions {
			if i > 0 {
				body.WriteByte(',')
			}
			a, err := ans(q)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&body, "%q:%v", q.Key, a)
		}
		body.WriteString(`}}`)
		resp, err := http.Post(srv.URL()+"/sessions/"+info.ID+"/answers?wait=2s", "application/json", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(bufio.NewReader(resp.Body))
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("answers POST %d: %s", resp.StatusCode, raw)
		}
		var rep serve.AnswerReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("answer report %s: %v", raw, err)
		}
		if rep.Accepted != len(qb.Questions) {
			t.Fatalf("accepted %d of %d", rep.Accepted, len(qb.Questions))
		}
		if rep.Next == nil {
			t.Fatal("fused POST returned no next batch")
		}
		qb = *rep.Next
	}
	if qb.State != serve.StateDone {
		t.Fatalf("session ended %q, want done", qb.State)
	}
	hist, err := c.History(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hist {
		if want, ok := lastWins[strings.Join(e.Tuples, " ")]; ok {
			if e.Answer != want {
				t.Errorf("history records %v for %v, want the last value %v", e.Answer, e.Tuples, want)
			}
			delete(lastWins, strings.Join(e.Tuples, " "))
		}
	}
	if len(lastWins) != 0 {
		t.Errorf("repeated-key questions missing from the history: %v", lastWins)
	}
	if err := c.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
}
