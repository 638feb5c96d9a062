// Command qhornd is the qhorn session server: learning-as-a-service
// over HTTP (docs/SERVICE.md). It hosts concurrent learn/verify
// sessions whose membership questions are answered remotely —
// POST /sessions creates a session, GET /sessions/{id}/questions
// fetches the outstanding batch, POST /sessions/{id}/answers
// delivers answers out of order, GET /sessions/{id}/snapshot persists
// a session for crash/resume, POST /sessions/{id}/amend runs the §5
// revision loop. The observability plane is mounted on the same port:
// /metrics, /healthz, /spans, /progress, /debug/pprof.
//
// Usage:
//
//	qhornd                          # listen on :8091
//	qhornd -addr :9000 -max-sessions 1000 -budget 5000
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"qhorn/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the testable entry point: it serves until stop delivers and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("qhornd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8091", "listen address (host:port; port 0 picks a free port)")
		maxSessions = fs.Int("max-sessions", 0, "max concurrently running sessions (0 = unlimited); excess creations get 429")
		budget      = fs.Int("budget", 0, "default per-session live-question budget (0 = unlimited)")
		memoCap     = fs.Int("memo-capacity", 0, "shared cross-session memo tier capacity in answers (0 = default, negative disables the tier)")
		flightSpans = fs.Int("flight-spans", 0, "span flight-recorder capacity (0 = default)")
		quiet       = fs.Bool("quiet", false, "suppress per-session diagnostics")

		readHeaderTimeout = fs.Duration("read-header-timeout", 0, "drop clients that trickle request headers after this long (0 = default, negative disables)")
		writeTimeout      = fs.Duration("write-timeout", 0, "bound a whole response write (0 = default, negative disables)")
		idleTimeout       = fs.Duration("idle-timeout", 0, "reclaim idle keep-alive connections after this long (0 = default, negative disables)")
		maxHeaderBytes    = fs.Int("max-header-bytes", 0, "cap request header size (0 = default, negative = net/http default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "qhornd: ", log.LstdFlags)
	cfg := serve.Config{
		MaxSessions:       *maxSessions,
		Budget:            *budget,
		MemoCapacity:      *memoCap,
		FlightSpans:       *flightSpans,
		ReadHeaderTimeout: *readHeaderTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	srv := serve.New(cfg)
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintf(stderr, "qhornd: %v\n", err)
		return 1
	}
	memoNote := "memo disabled"
	if sm := srv.Memo(); sm != nil {
		memoNote = fmt.Sprintf("memo-capacity=%d", sm.Capacity())
	}
	fmt.Fprintf(stdout, "qhornd listening on %s (max-sessions=%d budget=%d %s)\n",
		srv.URL(), *maxSessions, *budget, memoNote)
	fmt.Fprintf(stdout, "  sessions: POST %s/sessions\n", srv.URL())
	fmt.Fprintf(stdout, "  metrics:  GET  %s/metrics\n", srv.URL())
	<-stop
	fmt.Fprintln(stdout, "qhornd: shutting down (aborting in-flight sessions)")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "qhornd: shutdown: %v\n", err)
		return 1
	}
	return 0
}
