package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// Flags is the shared observability flag bundle every CLI binds:
//
//	-trace        render the span tree on stdout at exit
//	-trace-out F  append the span stream as JSONL to file F
//	-metrics      print the Prometheus exposition on stdout at exit
//	-profile P    write P.cpu.pprof and P.heap.pprof around the run
//	-obs-addr A   serve /metrics, /spans, /progress, /healthz and
//	              /debug/pprof live on this address during the run
//	-obs-spans N  flight-recorder capacity (last N completed spans)
//	-obs-wait D   keep serving for D after the run completes
type Flags struct {
	Trace    bool
	TraceOut string
	Metrics  bool
	Profile  string
	// ObsAddr, when non-empty, serves the live observability plane
	// (obs.Server) on this host:port for the life of the session; port
	// 0 picks a free port. It forces the tracer on: the server's span
	// flight recorder consumes the span stream.
	ObsAddr string
	// ObsSpans is the flight recorder's completed-span ring capacity;
	// <= 0 selects DefaultFlightSpans.
	ObsSpans int
	// ObsWait keeps the observability server up for this long after
	// Close has rendered the run's outputs — the window CI smoke jobs
	// (and humans) use to curl a finished run.
	ObsWait time.Duration
}

// BindFlags registers the shared observability flags on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Trace, "trace", false, "print the span tree of the run at exit")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the span stream as JSONL to this file")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the metrics exposition (Prometheus text format) at exit")
	fs.StringVar(&f.Profile, "profile", "", "write CPU and heap profiles with this file prefix")
	fs.StringVar(&f.ObsAddr, "obs-addr", "", "serve /metrics, /spans, /progress, /healthz and /debug/pprof live on this host:port (port 0 picks a free port)")
	fs.IntVar(&f.ObsSpans, "obs-spans", 0, "flight-recorder capacity: keep the last N completed spans (0 = default)")
	fs.DurationVar(&f.ObsWait, "obs-wait", 0, "keep the -obs-addr server up this long after the run completes")
	return f
}

// Session is a live observability context for one CLI run: the span
// tracer (nil when no trace output was requested and no extra sinks
// were passed), the metrics registry (always usable), and the
// deferred outputs that Close flushes.
type Session struct {
	// Tracer is the span tracer; nil when tracing is off, which the
	// instrumented packages treat as silent.
	Tracer *Tracer
	// Metrics is the run's registry; always non-nil.
	Metrics *Registry

	flags   *Flags
	out     io.Writer
	tree    *TreeSink
	jsonl   *JSONLSink
	jsonlF  *os.File
	profile *Profile
	server  *Server
	closed  bool
}

// Start opens a session for the parsed flags. Tree and metrics output
// go to out at Close. Extra sinks (e.g. a CLI's -explain printer)
// force the tracer on even without -trace.
func (f *Flags) Start(out io.Writer, extra ...SpanSink) (*Session, error) {
	s := &Session{flags: f, out: out, Metrics: NewRegistry()}
	var sinks []SpanSink
	if f.Trace {
		s.tree = NewTreeSink()
		sinks = append(sinks, s.tree)
	}
	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("obs: trace-out: %w", err)
		}
		s.jsonlF = file
		s.jsonl = NewJSONLSink(file)
		sinks = append(sinks, s.jsonl)
	}
	sinks = append(sinks, extra...)
	if len(sinks) > 0 || f.ObsAddr != "" {
		// -obs-addr forces the tracer on even without -trace: the
		// server's flight recorder (attached by NewServer) consumes the
		// span stream.
		s.Tracer = NewTracer(sinks...)
	}
	if f.ObsAddr != "" {
		srv := NewServer(s.Metrics, s.Tracer, NewFlightRecorder(f.ObsSpans))
		if err := srv.Start(f.ObsAddr); err != nil {
			s.closeFiles()
			return nil, err
		}
		s.server = srv
		fmt.Fprintf(out, "obs: serving /metrics /spans /progress /healthz /debug/pprof on %s\n", srv.URL())
	}
	if f.Profile != "" {
		p, err := StartProfile(f.Profile)
		if err != nil {
			s.closeFiles()
			s.closeServer()
			return nil, err
		}
		s.profile = p
	}
	return s, nil
}

func (s *Session) closeFiles() {
	if s.jsonlF != nil {
		s.jsonlF.Close()
		s.jsonlF = nil
	}
}

func (s *Session) closeServer() {
	if s.server != nil {
		s.server.Close()
		s.server = nil
	}
}

// Close flushes the session: renders the span tree, prints the
// metrics exposition, closes the JSONL file and stops profiling. It
// returns the first error encountered but always attempts every step.
// Closing twice is a no-op, so a CLI may both defer Close (for error
// paths) and check its error explicitly on success.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.tree != nil {
		fmt.Fprintln(s.out, "\nSpan tree:")
		s.tree.Render(s.out)
	}
	if s.flags.Metrics {
		fmt.Fprintln(s.out, "\nMetrics:")
		keep(s.Metrics.WritePrometheus(s.out))
	}
	if s.jsonl != nil {
		keep(s.jsonl.Err())
	}
	if s.jsonlF != nil {
		keep(s.jsonlF.Close())
		s.jsonlF = nil
	}
	keep(s.profile.Stop())
	if s.server != nil && s.flags.ObsWait > 0 {
		fmt.Fprintf(s.out, "obs: run complete; serving %s for another %s\n", s.server.URL(), s.flags.ObsWait)
		time.Sleep(s.flags.ObsWait)
	}
	s.closeServer()
	return first
}
