package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, strings.NewReader(""), &out, &errb)
	return out.String(), errb.String(), code
}

// TestSmokeRun: the CI invocation finds zero disagreements.
func TestSmokeRun(t *testing.T) {
	out, errb, code := runCLI(t, "-runs", "120", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out, errb)
	}
	for _, want := range []string{"disagreements: 0", "membership questions:", "brute cross-checks"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestClassRestriction: -class qhorn1 reports no rp cases.
func TestClassRestriction(t *testing.T) {
	out, _, code := runCLI(t, "-runs", "20", "-class", "qhorn1", "-q")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "rp 0,") {
		t.Errorf("rp cases generated under restriction:\n%s", out)
	}
}

// TestMatrixJudge: -matrix replays every case through the engine's
// option combinations and still finds zero disagreements.
func TestMatrixJudge(t *testing.T) {
	out, errb, code := runCLI(t, "-runs", "20", "-seed", "2", "-matrix", "-q")
	if code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out, errb)
	}
	if !strings.Contains(out, "disagreements: 0") {
		t.Errorf("output missing clean verdict:\n%s", out)
	}
}

// TestFuzzTotals pins the question totals of the deterministic fuzz
// run that CI executes, serially and with the options matrix. The
// learners' question streams are bit-identical across changes that
// keep the paper's algorithms, so any move in these totals means a
// learner, the verifier or a judge now asks differently.
func TestFuzzTotals(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		questions string
	}{
		{"serial", nil, "membership questions: 29084\n"},
		{"matrix", []string{"-matrix"}, "membership questions: 102039\n"},
	} {
		out, errb, code := runCLI(t, append([]string{"-runs", "500", "-seed", "1", "-q"}, tc.args...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d:\n%s%s", tc.name, code, out, errb)
		}
		for _, want := range []string{tc.questions, "disagreements: 0"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q:\n%s", tc.name, want, out)
			}
		}
	}
}

// TestUsageErrors: bad flags and classes exit 2.
func TestUsageErrors(t *testing.T) {
	if _, _, code := runCLI(t, "-class", "bogus"); code != 2 {
		t.Errorf("bad -class: exit %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-no-such-flag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestCorpusReplay: the checked-in seed corpus replays clean.
func TestCorpusReplay(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "difffuzz", "testdata", "corpus")
	out, errb, code := runCLI(t, "-corpus", dir)
	if code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out, errb)
	}
	if !strings.Contains(out, "replaying") || !strings.Contains(out, "disagreements: 0") {
		t.Errorf("unexpected replay output:\n%s", out)
	}
}

// TestCorpusMissingDirIsEmpty: a nonexistent corpus is empty, not an
// error; a corrupt one fails.
func TestCorpusErrors(t *testing.T) {
	out, _, code := runCLI(t, "-corpus", filepath.Join(t.TempDir(), "nope"))
	if code != 0 || !strings.Contains(out, "replaying 0") {
		t.Errorf("missing corpus: exit %d:\n%s", code, out)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.repro"), []byte("class: nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errb, code := runCLI(t, "-corpus", dir); code != 1 || !strings.Contains(errb, "bad.repro") {
		t.Errorf("corrupt corpus: exit %d, stderr %q", code, errb)
	}
}

// TestInjectMinimizeRepro: with -inject the pipeline detects the bug,
// minimizes the repro, and writes it; the written repro replays with
// -inject and is caught again.
func TestInjectMinimizeRepro(t *testing.T) {
	dir := t.TempDir()
	out, errb, code := runCLI(t,
		"-runs", "10", "-seed", "2", "-q",
		"-inject", "-minimize", "-repro-dir", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (injected bug must be detected):\n%s%s", code, out, errb)
	}
	for _, want := range []string{"INJECTING", "MINIMIZED", "repro written to"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no repro files written (err=%v)", err)
	}
	// The repro replays: clean without the injected bug, caught with it.
	if out, _, code := runCLI(t, "-corpus", dir); code != 0 {
		t.Errorf("repro replay without -inject: exit %d:\n%s", code, out)
	}
	if out, _, code := runCLI(t, "-corpus", dir, "-inject"); code != 1 {
		t.Errorf("repro replay with -inject: exit %d, want 1:\n%s", code, out)
	}
}

// TestObservabilityFlags: -trace and -metrics surface the fuzz span
// and counters.
func TestObservabilityFlags(t *testing.T) {
	out, _, code := runCLI(t, "-runs", "10", "-q", "-trace", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"difffuzz", "qhorn_fuzz_cases_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
