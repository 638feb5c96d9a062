package main

import (
	"strings"
	"testing"
)

func runCLI(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

func TestHonestSession(t *testing.T) {
	out, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"DataPlay session",
		"learned after",
		"verification: correct=true",
		"equivalent to intent: true",
		"execution:",
		"as SQL:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestMistakeAndAmendment(t *testing.T) {
	out, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-mistake", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"(user misanswers question 4)",
		"amended 1 response(s)",
		"verification after amendment: correct=true",
		"equivalent to intent: true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGivenQueryVerified(t *testing.T) {
	out, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-given", "Ax1 Ex2x3")
	if code != 0 || !strings.Contains(out, "VERIFIED") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestGivenQueryRevised(t *testing.T) {
	out, _, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-given", "Ax1 Ex2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"INCORRECT", "revising", "revised query:", "changes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRolePreservingSession(t *testing.T) {
	out, _, code := runCLI(t, "", "-class", "rp", "-simulate", "Ex2x3")
	if code != 0 || !strings.Contains(out, "equivalent to intent: true") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestInteractiveSession(t *testing.T) {
	// Answer every question "n": a consistent user whose intent
	// rejects everything shown; the learner still terminates.
	answers := strings.Repeat("n\n", 64)
	out, _, code := runCLI(t, answers)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "answer to your query?") || !strings.Contains(out, "learned after") {
		t.Errorf("interactive flow incomplete:\n%s", out)
	}
}

func TestUnknownClass(t *testing.T) {
	_, errb, code := runCLI(t, "", "-simulate", "Ex1", "-class", "zzz")
	if code != 1 || !strings.Contains(errb, "unknown class") {
		t.Errorf("bad class accepted (exit %d): %s", code, errb)
	}
}

func TestErrors(t *testing.T) {
	if _, _, code := runCLI(t, "", "-simulate", "zzz"); code != 1 {
		t.Error("bad simulate accepted")
	}
	if _, _, code := runCLI(t, "", "-simulate", "Ex1", "-given", "zzz"); code != 1 {
		t.Error("bad given accepted")
	}
	if _, _, code := runCLI(t, "", "-props", "/nonexistent.json"); code != 1 {
		t.Error("missing props accepted")
	}
	if _, _, code := runCLI(t, "", "-data", "/nonexistent.json"); code != 1 {
		t.Error("missing data accepted")
	}
	if _, _, code := runCLI(t, "", "-badflag"); code != 2 {
		t.Error("bad flag accepted")
	}
}

// TestSessionTrace checks the session driver emits lifecycle spans
// under -trace.
func TestSessionTrace(t *testing.T) {
	out, errb, code := runCLI(t, "", "-simulate", "Ax1 Ex2x3", "-trace")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, span := range []string{"Span tree:", "dataplay-session", "learn", "verify"} {
		if !strings.Contains(out, span) {
			t.Errorf("trace output missing %q:\n%s", span, out)
		}
	}
}
