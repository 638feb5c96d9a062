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

func TestPrintVerificationSet(t *testing.T) {
	out, _, code := runCLI(t, "", "-n", "6", "-query", "Ax1x4 -> x5 Ex2x3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"[A1]", "[N2]", "[A4]", "∀x1x4 → x5", "100110"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestVerifiedAgainstSelf(t *testing.T) {
	out, _, code := runCLI(t, "", "-n", "4", "-query", "Ax1 -> x2 Ex3x4", "-intended", "Ax1 -> x2 Ex3x4")
	if code != 0 || !strings.Contains(out, "VERIFIED") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestIncorrectDetected(t *testing.T) {
	out, _, code := runCLI(t, "", "-n", "4", "-query", "Ax1 -> x2 Ex3x4", "-intended", "Ax1 -> x3 Ex3x4")
	if code != 1 || !strings.Contains(out, "INCORRECT") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestReviseFlow(t *testing.T) {
	out, _, code := runCLI(t, "", "-n", "6",
		"-query", "Ax1x4 -> x5 Ex2x3",
		"-intended", "Ax1x4 -> x5 Ex2x3 Ex2x6",
		"-revise")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"REVISED", "changes:", "+ ∃x2x6"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFirstStopsEarly(t *testing.T) {
	out, _, code := runCLI(t, "", "-n", "4", "-query", "Ex1x2", "-intended", "Ex3x4", "-first")
	if code != 1 {
		t.Fatalf("exit %d", code)
	}
	if strings.Count(out, "disagreement(s)") != 1 || !strings.Contains(out, "1 disagreement(s)") {
		t.Errorf("early stop output:\n%s", out)
	}
}

func TestInteractiveAsk(t *testing.T) {
	// ∃x1 over 2 variables: the set has A1 {10}, N1 {00}, A4
	// {11,01,10}. Answer them correctly: y, n, y.
	out, _, code := runCLI(t, "y\nn\ny\n", "-n", "2", "-query", "Ex1", "-ask")
	if code != 0 || !strings.Contains(out, "VERIFIED") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	if _, _, code := runCLI(t, ""); code != 2 {
		t.Error("missing flags accepted")
	}
	if _, errb, code := runCLI(t, "", "-n", "6", "-query", "zzz"); code != 1 || !strings.Contains(errb, "qhornverify:") {
		t.Error("bad query accepted")
	}
	if _, _, code := runCLI(t, "", "-n", "6", "-query", "Ax1x4 -> x5 Ax2x3x5 -> x6"); code != 1 {
		t.Error("non-role-preserving query accepted")
	}
	if _, _, code := runCLI(t, "", "-n", "4", "-query", "Ex1", "-intended", "zzz"); code != 1 {
		t.Error("bad intended query accepted")
	}
	if _, _, code := runCLI(t, "", "-badflag"); code != 2 {
		t.Error("bad flag accepted")
	}
}

// TestVerifyTraceAndMetrics checks the observability flags on a
// simulated verification run: per-family spans and kind-labeled
// counters.
func TestVerifyTraceAndMetrics(t *testing.T) {
	out, errb, code := runCLI(t, "",
		"-n", "6", "-query", "∀x1x4 → x5 ∃x2x3", "-intended", "∀x1x4 → x5 ∃x2x3",
		"-trace", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "VERIFIED") {
		t.Fatalf("not verified:\n%s", out)
	}
	if !strings.Contains(out, "Span tree:") || !strings.Contains(out, "verify/A1") {
		t.Errorf("span tree missing verify/A1:\n%s", out)
	}
	if !strings.Contains(out, `qhorn_verify_questions_total{kind="A1"} 1`) {
		t.Errorf("exposition missing kind-labeled verify counter:\n%s", out)
	}
	if !strings.Contains(out, "qhorn_questions_total ") {
		t.Errorf("exposition missing oracle question counter:\n%s", out)
	}
}
