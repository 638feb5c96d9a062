// Observability: trace a learning run as a span tree, collect its
// metrics, print a Prometheus exposition, and serve it all live over
// HTTP — all through the public qhorn API (see docs/OBSERVABILITY.md).
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"qhorn"
)

func main() {
	u := qhorn.MustUniverse(6)
	intended := qhorn.MustParseQuery(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	fmt.Println("intended (hidden):", intended)

	// A tree sink collects the span hierarchy; a registry collects
	// the counters and histograms of the paper's cost model. The
	// counting oracle mirrors its question count into the registry.
	tree := qhorn.NewTreeSink()
	tracer := qhorn.NewSpanTracer(tree)
	reg := qhorn.NewMetricsRegistry()
	user := qhorn.CountingOracle(qhorn.TargetOracle(intended), reg)

	// The observability server makes the same registry and span stream
	// browsable while the run executes: /metrics, /spans, /progress,
	// /healthz and /debug/pprof. Port 0 picks a free port; a flight
	// recorder attached to our tracer feeds /spans. CLIs get the same
	// server with -obs-addr.
	srv := qhorn.NewObsServer(reg, tracer, qhorn.NewFlightRecorder(256))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()

	// One instrumentation value threads through learning and
	// verification alike; the engine options compose it with the
	// algorithm choice.
	ins := qhorn.Instrumentation{Spans: tracer, Metrics: reg}
	learned, stats := qhorn.Learn(u, user,
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving),
		qhorn.WithInstrumentation(ins))
	fmt.Println("learned:          ", learned)
	fmt.Println("equivalent:        ", learned.Equivalent(intended))
	fmt.Printf("questions:          %d\n", stats.Total())

	// Verification runs under the same tracer and registry.
	res, err := qhorn.Verify(learned, user, qhorn.WithInstrumentation(ins))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("verification:       correct=%v (%d questions)\n", res.Correct, res.QuestionsAsked)

	// The span tree shows where the questions went: learning phases,
	// lattice searches, and one span per verification family.
	fmt.Println("\nspan tree:")
	tree.Render(os.Stdout)

	// The exposition is the Prometheus text format; qhorn_questions_total
	// equals every question the oracle answered, learning + verification.
	fmt.Println("\nmetrics exposition:")
	reg.WritePrometheus(os.Stdout)

	// The same data is live over HTTP: the metrics page carries the
	// question counters, and the /spans flight-recorder dump holds the
	// completed learning and verification spans as JSON lines.
	fmt.Println("\nlive observability server:")
	fmt.Println("  /healthz:", strings.TrimSpace(fetch(srv.URL()+"/healthz")))
	fmt.Println("  /metrics serves qhorn_questions_total:",
		strings.Contains(fetch(srv.URL()+"/metrics"), "qhorn_questions_total"))
	spanLines := strings.Count(strings.TrimSpace(fetch(srv.URL()+"/spans")), "\n") + 1
	fmt.Println("  /spans JSONL records:", spanLines > 0)
}

// fetch GETs a URL from the example's own observability server.
func fetch(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return string(body)
}
