package load

import (
	"strings"
	"testing"
	"time"

	"qhorn/internal/run"
	"qhorn/internal/serve"
)

// TestRunInProcess is the harness's own smoke test: a mixed workload
// against a spawned server, with every session's bit-identity
// asserted against the direct reference.
func TestRunInProcess(t *testing.T) {
	var lines []string
	rep, err := Run(Options{
		Sessions:       16,
		Workers:        4,
		Targets:        4,
		VerifyFrac:     0.2,
		AmendFrac:      0.2,
		WarmFrac:       0.2,
		ThinkMean:      100 * time.Microsecond,
		Seed:           11,
		AssertIdentity: true,
		Logf:           func(f string, a ...interface{}) { lines = append(lines, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 16 {
		t.Fatalf("completed %d sessions, want 16", rep.Sessions)
	}
	if got := rep.Learns + rep.WarmLearns + rep.Verifies + rep.Amends; got != rep.Sessions {
		t.Fatalf("kind counts sum to %d, sessions %d", got, rep.Sessions)
	}
	if rep.Questions == 0 || rep.RoundTrips == 0 {
		t.Fatalf("no traffic recorded: %+v", rep)
	}
	if rep.SessionsPerSec <= 0 || rep.QuestionsPerSec <= 0 {
		t.Fatalf("no throughput computed: %+v", rep)
	}
	if rep.SessionP50 <= 0 || rep.SessionP99 < rep.SessionP50 {
		t.Fatalf("implausible session percentiles: p50=%v p99=%v", rep.SessionP50, rep.SessionP99)
	}
	// The scrape must surface the per-route histograms and the oracle
	// ask latency for the traffic we just generated.
	if q, ok := rep.HTTP["answers"]; !ok || q.Count == 0 {
		t.Fatalf("no answers-route latency scraped: %+v", rep.HTTP)
	}
	if q, ok := rep.HTTP["create"]; !ok || q.Count != 16 {
		t.Fatalf("create-route count %+v, want 16", rep.HTTP["create"])
	}
	if rep.Ask.Count == 0 {
		t.Fatal("no oracle ask latency scraped")
	}
	if len(lines) == 0 {
		t.Fatal("Logf never called for the in-process spawn")
	}
	out := rep.String()
	for _, want := range []string{"sessions 16", "throughput", "session latency", "http answers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report summary missing %q:\n%s", want, out)
		}
	}
}

// TestRunExternalServer drives an already-running server through
// Base, the deployment shape of the CI load-smoke job.
func TestRunExternalServer(t *testing.T) {
	srv := serve.New(serve.Config{MemoCapacity: -1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep, err := Run(Options{
		Base:           srv.URL(),
		Sessions:       6,
		Workers:        3,
		Targets:        3,
		Wire:           serve.WireFused,
		Seed:           5,
		AssertIdentity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 6 {
		t.Fatalf("completed %d sessions, want 6", rep.Sessions)
	}
	if q, ok := rep.HTTP["answers"]; !ok || q.Count == 0 {
		t.Fatalf("no answers-route latency scraped from the external server: %+v", rep.HTTP)
	}
}

// TestRunWireModes runs each wire mode with identity asserts — the
// sustained-load flavor of the wire-mode identity e2e test.
func TestRunWireModes(t *testing.T) {
	for _, wire := range []serve.WireMode{serve.WireBatched, serve.WireFused, serve.WireSingle} {
		t.Run(wire.String(), func(t *testing.T) {
			rep, err := Run(Options{
				Sessions: 4, Workers: 2, Targets: 2,
				Wire: wire, Seed: 7, AssertIdentity: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Sessions != 4 {
				t.Fatalf("%s: %d sessions, want 4", wire, rep.Sessions)
			}
		})
	}
}

// TestRunRolePreserving covers the rp algorithm path and the warm
// memo tier under it.
func TestRunRolePreserving(t *testing.T) {
	rep, err := Run(Options{
		Sessions: 4, Workers: 2, Targets: 2,
		Algorithm: run.RolePreserving, WarmFrac: 0.5,
		Seed: 13, AssertIdentity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 4 {
		t.Fatalf("%d sessions, want 4", rep.Sessions)
	}
}

// TestRunUnreachableBase fails fast against a dead server.
func TestRunUnreachableBase(t *testing.T) {
	_, err := Run(Options{Base: "http://127.0.0.1:1", Sessions: 2, Workers: 1, Targets: 1, Seed: 3})
	if err == nil {
		t.Fatal("Run against a dead server succeeded")
	}
}

// TestRunDurationStops launches fewer sessions when the duration
// elapses before the session budget.
func TestRunDurationStops(t *testing.T) {
	rep, err := Run(Options{
		Sessions: 10000, Workers: 2, Targets: 2,
		Duration:  50 * time.Millisecond,
		ThinkMean: 2 * time.Millisecond,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions == 0 || rep.Sessions >= 10000 {
		t.Fatalf("duration-bounded run completed %d sessions", rep.Sessions)
	}
}

// TestBuildPlansDeterministic pins the session mix to the seed.
func TestBuildPlansDeterministic(t *testing.T) {
	opt := Options{Sessions: 200, Targets: 4, VerifyFrac: 0.25, AmendFrac: 0.25, WarmFrac: 0.25, Seed: 21}
	_, a := buildPlans(opt)
	_, b := buildPlans(opt)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("plan lengths %d/%d", len(a), len(b))
	}
	counts := map[int]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		counts[a[i].kind]++
		if a[i].target != i%4 {
			t.Fatalf("plan %d target %d, want %d", i, a[i].target, i%4)
		}
	}
	// Each quarter-weighted kind should land within a loose band.
	for kind, n := range counts {
		if n < 20 || n > 110 {
			t.Fatalf("kind %d drawn %d times of 200 with fraction 0.25", kind, n)
		}
	}
}

// TestPercentile pins the rank convention.
func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.99); got != 0 {
		t.Fatalf("empty percentile %v", got)
	}
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.50); got != 5 {
		t.Fatalf("p50 of 1..10 = %v, want 5", got)
	}
	if got := percentile(sorted, 0.99); got != 9 {
		t.Fatalf("p99 of 1..10 = %v, want 9", got)
	}
	if got := percentile(sorted, 1.0); got != 10 {
		t.Fatalf("p100 of 1..10 = %v, want 10", got)
	}
}

// TestRouteLabel pins the histogram-key parser.
func TestRouteLabel(t *testing.T) {
	if got := routeLabel(`qhornd_http_seconds{route="answers"}`); got != "answers" {
		t.Fatalf("routeLabel = %q", got)
	}
	if got := routeLabel(`qhornd_http_seconds`); got != "" {
		t.Fatalf("label-less key gave %q", got)
	}
	if got := routeLabel(`qhornd_http_seconds{route="x`); got != "" {
		t.Fatalf("truncated key gave %q", got)
	}
}
