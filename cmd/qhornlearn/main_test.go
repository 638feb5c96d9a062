package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qhorn/internal/nested"
)

func runCLI(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

func TestSimulatedChocolateSession(t *testing.T) {
	out, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-execute", "-sql")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"x1: isDark",
		"Simulating a user",
		"Learned (",
		"As SQL:",
		"SELECT o.id, o.name",
		"Executing over 100 objects",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRolePreservingClassFlag(t *testing.T) {
	out, _, code := runCLI(t, "", "-class", "rp", "-simulate", "Ex2x3")
	if code != 0 || !strings.Contains(out, "universal") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestBooleanInteractiveSession(t *testing.T) {
	// Learn ∃x1 over 2 abstract variables. The qhorn-1 learner asks:
	// head tests for x1 and x2 (both answers for ∃x1 ∃x2-ish...);
	// feed enough consistent answers for target ∃x1 ∃x2: every
	// question gets answered as the target would — but stdin is a
	// script, so precompute by simulating is overkill: drive with a
	// generous yes-list tail: after EOF, responses default to
	// non-answer, which stays consistent for this tiny target.
	out, _, code := runCLI(t, "y\ny\ny\ny\ny\ny\ny\ny\n", "-n", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "Learned (") {
		t.Errorf("no learned query:\n%s", out)
	}
}

func TestJSONRoundTripFlow(t *testing.T) {
	dir := t.TempDir()
	props, err := nested.EncodePropositions(nested.ChocolatePropositions())
	if err != nil {
		t.Fatal(err)
	}
	propsPath := filepath.Join(dir, "props.json")
	if err := os.WriteFile(propsPath, props, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := nested.EncodeDataset(nested.RandomChocolates(rand.New(rand.NewSource(3)), 30, 4))
	if err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(dir, "data.json")
	if err := os.WriteFile(dataPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-props", propsPath, "-data", dataPath, "-execute")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"Loaded 30 objects", "Executing over 30 objects"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, _, code := runCLI(t, "", "-simulate", "zzz"); code != 1 {
		t.Error("bad simulate query accepted")
	}
	if _, _, code := runCLI(t, "", "-class", "nope", "-simulate", "Ex1"); code != 1 {
		t.Error("bad class accepted")
	}
	if _, _, code := runCLI(t, "", "-n", "99"); code != 1 {
		t.Error("oversized universe accepted")
	}
	if _, _, code := runCLI(t, "", "-props", "/nonexistent.json"); code != 1 {
		t.Error("missing props file accepted")
	}
	if _, _, code := runCLI(t, "", "-data", "/nonexistent.json"); code != 1 {
		t.Error("missing data file accepted")
	}
	if _, _, code := runCLI(t, "", "-badflag"); code != 2 {
		t.Error("bad flag accepted")
	}
}

func TestExplainFlag(t *testing.T) {
	out, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-explain")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"[heads]", "universal head variable", "-> answer"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q", want)
		}
	}
}

func TestProposeFlag(t *testing.T) {
	dir := t.TempDir()
	data, err := nested.EncodeDataset(nested.RandomChocolates(rand.New(rand.NewSource(9)), 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "d.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runCLI(t, "", "-propose", "-data", path, "-simulate", "Ax1 Ex2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "Proposed") || !strings.Contains(out, "Learned (") {
		t.Errorf("propose flow incomplete:\n%s", out)
	}
	if _, _, code := runCLI(t, "", "-propose"); code != 1 {
		t.Error("-propose without -data accepted")
	}
}

// TestObservabilityEndToEnd is the acceptance scenario of the
// observability layer: a simulated role-preserving session with
// -trace -metrics emits a span tree covering every learning phase and
// a metrics exposition whose qhorn_questions_total equals the
// question count the CLI reports.
func TestObservabilityEndToEnd(t *testing.T) {
	out, errb, code := runCLI(t, "",
		"-class", "rp", "-simulate", "∀x1x2 → x3 ∃x4x5", "-trace", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}

	// The query references x4, x5: the CLI auto-widens past the
	// 3-proposition chocolate schema to a 5-variable Boolean universe.
	if !strings.Contains(out, "Learned (") {
		t.Fatalf("no learned query in output:\n%s", out)
	}

	// Span tree covers every phase of the run.
	if !strings.Contains(out, "Span tree:") {
		t.Fatalf("no span tree:\n%s", out)
	}
	for _, span := range []string{"learn/rp", "heads", "bodies", "existential", "lattice-search"} {
		if !strings.Contains(out, span) {
			t.Errorf("span tree missing %q:\n%s", span, out)
		}
	}

	// Exposition question counter equals the reported question count.
	var reported int
	if _, err := fmt.Sscanf(out[strings.Index(out, "Learned ("):], "Learned (%d questions", &reported); err != nil {
		t.Fatalf("cannot parse reported question count: %v\n%s", err, out)
	}
	if !strings.Contains(out, "Metrics:") {
		t.Fatalf("no metrics exposition:\n%s", out)
	}
	metricLine := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "qhorn_questions_total ") {
			metricLine = line
		}
	}
	if metricLine == "" {
		t.Fatalf("no qhorn_questions_total sample:\n%s", out)
	}
	var counted int
	if _, err := fmt.Sscanf(metricLine, "qhorn_questions_total %d", &counted); err != nil {
		t.Fatalf("cannot parse %q: %v", metricLine, err)
	}
	if counted != reported {
		t.Errorf("exposition counts %d questions, CLI reported %d", counted, reported)
	}

	// The by-phase family sums to the same count.
	byPhase := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "qhorn_questions_by_phase_total{") {
			var v int
			if _, err := fmt.Sscanf(line[strings.Index(line, "} ")+2:], "%d", &v); err == nil {
				byPhase += v
			}
		}
	}
	if byPhase != reported {
		t.Errorf("by-phase samples sum to %d, CLI reported %d", byPhase, reported)
	}
}

// TestExplainConsumesSpanStream checks -explain prints the annotated
// questions without requiring -trace.
func TestExplainConsumesSpanStream(t *testing.T) {
	out, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-explain")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "[heads] is x1 a universal head variable?") {
		t.Errorf("explain output missing annotated question:\n%s", out)
	}
	if strings.Contains(out, "Span tree:") {
		t.Errorf("-explain alone should not render the span tree:\n%s", out)
	}
}

// TestTraceOutWritesJSONL checks -trace-out produces a parseable span
// stream file.
func TestTraceOutWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	_, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-trace-out", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("span stream too short: %d lines", len(lines))
	}
	for _, line := range lines {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec["type"] == "" || rec["name"] == "" {
			t.Errorf("incomplete record %q", line)
		}
	}
}
