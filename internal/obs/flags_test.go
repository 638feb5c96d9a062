package obs

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlagsOffProducesNilTracer(t *testing.T) {
	f := parseFlags(t)
	s, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer != nil {
		t.Error("tracer created with no trace flags")
	}
	if s.Metrics == nil {
		t.Error("metrics registry missing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsTraceAndMetricsOutput(t *testing.T) {
	f := parseFlags(t, "-trace", "-metrics")
	var out strings.Builder
	s, err := f.Start(&out)
	if err != nil {
		t.Fatal(err)
	}
	sp := s.Tracer.StartSpan("learn/qhorn1")
	sp.StartChild("heads").End()
	sp.End()
	s.Metrics.Counter(MetricQuestions).Add(3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Span tree:", "learn/qhorn1", "└─ heads", "Metrics:", "qhorn_questions_total 3"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestFlagsTraceOutWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f := parseFlags(t, "-trace-out", path)
	s, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s.Tracer.StartSpan("root").End()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"type":"start"`) || !strings.Contains(string(raw), `"type":"end"`) {
		t.Errorf("JSONL incomplete:\n%s", raw)
	}
}

func TestFlagsProfileWritesFiles(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "prof")
	f := parseFlags(t, "-profile", prefix)
	s, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Some work so the CPU profile is non-degenerate.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	_ = x
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		if fi, err := os.Stat(prefix + suffix); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", suffix, err)
		}
	}
}

func TestFlagsExtraSinkForcesTracer(t *testing.T) {
	f := parseFlags(t)
	s, err := f.Start(io.Discard, NewTreeSink())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Tracer == nil {
		t.Error("extra sink did not force a tracer")
	}
}

func TestFlagsBadTraceOutPath(t *testing.T) {
	f := parseFlags(t, "-trace-out", "/nonexistent-dir/x/y.jsonl")
	if _, err := f.Start(io.Discard); err == nil {
		t.Error("bad trace-out path accepted")
	}
}

func TestFlagsObsAddrServesSession(t *testing.T) {
	f := parseFlags(t, "-obs-addr", "127.0.0.1:0", "-obs-spans", "32")
	var out strings.Builder
	s, err := f.Start(&out)
	if err != nil {
		t.Fatal(err)
	}
	if s.server == nil {
		t.Fatal("no server despite -obs-addr")
	}
	if s.Tracer == nil {
		t.Error("-obs-addr did not force the tracer on")
	}
	if got := s.server.Flight().Capacity(); got != 32 {
		t.Errorf("flight capacity = %d, want 32 from -obs-spans", got)
	}
	if !strings.Contains(out.String(), s.server.URL()) {
		t.Errorf("startup banner does not announce %s:\n%s", s.server.URL(), out.String())
	}

	// A run instrumented with the session's tracer and registry is
	// visible at the live endpoints.
	s.Tracer.StartSpan("learn/qhorn1").End()
	s.Metrics.Counter(MetricQuestions).Add(5)
	url := s.server.URL()
	if body := httpGet(t, url+"/metrics"); !strings.Contains(body, "qhorn_questions_total 5") {
		t.Errorf("live /metrics missing counter:\n%s", body)
	}
	if body := httpGet(t, url+"/spans"); !strings.Contains(body, `"name":"learn/qhorn1"`) {
		t.Errorf("live /spans missing span:\n%s", body)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.server != nil {
		t.Error("server still referenced after Close")
	}
}

func TestFlagsObsAddrBadAddrFailsStart(t *testing.T) {
	f := parseFlags(t, "-obs-addr", "256.256.256.256:99999")
	if _, err := f.Start(io.Discard); err == nil {
		t.Error("bogus -obs-addr accepted")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
