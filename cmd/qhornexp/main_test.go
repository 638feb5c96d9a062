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
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListExperiments(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"E1", "qhorn1-scaling", "E18", "teaching-sets", "claim:"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, _, code := runCLI(t, "-exp", "fig7")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "E8 fig7") || !strings.Contains(out, "A1") {
		t.Errorf("fig7 output incomplete:\n%s", out[:min(400, len(out))])
	}
}

func TestRunSummaryGate(t *testing.T) {
	out, _, code := runCLI(t, "-exp", "summary", "-quick", "-trials", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("reproduction gate failed:\n%s", out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatal("no verdicts printed")
	}
}

func TestFormats(t *testing.T) {
	md, _, code := runCLI(t, "-exp", "worked-example", "-format", "markdown")
	if code != 0 || !strings.Contains(md, "| kind |") {
		t.Errorf("markdown output wrong (exit %d)", code)
	}
	csv, _, code := runCLI(t, "-exp", "worked-example", "-format", "csv")
	if code != 0 || !strings.Contains(csv, "kind,about") {
		t.Errorf("csv output wrong (exit %d)", code)
	}
	// A bad format is rejected before -out is opened, so an existing
	// output file survives the usage error.
	path := filepath.Join(t.TempDir(), "keep.txt")
	if err := os.WriteFile(path, []byte("previous run\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errb, code := runCLI(t, "-exp", "worked-example", "-format", "yaml", "-out", path)
	if code != 2 || !strings.Contains(errb, "unknown format") {
		t.Errorf("bad format accepted (exit %d, %q)", code, errb)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "previous run\n" {
		t.Errorf("-out file clobbered by a usage error: %q, %v", data, err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, errb, code := runCLI(t, "-exp", "nope")
	if code == 0 || !strings.Contains(errb, "unknown experiment") {
		t.Errorf("unknown experiment accepted (exit %d)", code)
	}
}

func TestBadFlag(t *testing.T) {
	_, _, code := runCLI(t, "-definitely-not-a-flag")
	if code == 0 {
		t.Error("bad flag accepted")
	}
	// The shared flag bundle has no worker count and the runner writes
	// no JSON summaries: -parallel and -json are unknown flags, not a
	// silently serial run or a silently missing file.
	for _, args := range [][]string{
		{"-exp", "fig7", "-parallel", "4"},
		{"-exp", "fig7", "-json"},
	} {
		_, errb, code := runCLI(t, args...)
		if code != 2 || !strings.Contains(errb, "flag provided but not defined: "+args[2]) {
			t.Errorf("%v accepted (exit %d, %q)", args, code, errb)
		}
	}
}

func TestOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	_, _, code := runCLI(t, "-exp", "fig7", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fig7") {
		t.Error("output file empty")
	}
	_, _, code = runCLI(t, "-exp", "fig7", "-out", filepath.Join(path, "impossible", "x"))
	if code == 0 {
		t.Error("unwritable path accepted")
	}
	// Neither a failed observability start nor an -outdir run, which
	// writes no tables to -out, may empty the previous output.
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-exp", "fig7", "-out", path, "-trace-out", filepath.Join(dir, "missing", "t.jsonl")},
		{"-exp", "fig7", "-out", path, "-outdir", dir},
	} {
		runCLI(t, args...)
		if after, err := os.ReadFile(path); err != nil || string(after) != string(data) {
			t.Errorf("%v: -out file changed (%d bytes before, %d after, %v)", args, len(data), len(after), err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestOutDir(t *testing.T) {
	dir := t.TempDir()
	out, _, code := runCLI(t, "-exp", "fig7", "-outdir", dir)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "wrote ") {
		t.Error("no file reported")
	}
	data, err := os.ReadFile(filepath.Join(dir, "E8-fig7.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Claim:") || !strings.Contains(string(data), "| query |") {
		t.Error("markdown file incomplete")
	}
}

// TestCloseErrorFailsRun checks that an error from closing the
// observability session (here: the heap profile cannot be written,
// because a directory holds its path) fails the run the same way with
// and without -outdir.
func TestCloseErrorFailsRun(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "prof")
	if err := os.Mkdir(prefix+".heap.pprof", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-exp", "fig7", "-profile", prefix},
		{"-exp", "fig7", "-profile", prefix, "-outdir", filepath.Join(dir, "md")},
	} {
		_, errb, code := runCLI(t, args...)
		if code != 1 || !strings.Contains(errb, "heap profile") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming the heap profile", args, code, errb)
		}
	}
}

// TestExpTraceAndMetrics checks the shared observability flags on the
// experiment runner: a span per experiment and the experiments
// counter in the exposition.
func TestExpTraceAndMetrics(t *testing.T) {
	out, errb, code := runCLI(t,
		"-exp", "qhorn1-scaling", "-quick", "-trials", "2", "-trace", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "Span tree:") || !strings.Contains(out, "experiment") {
		t.Errorf("no experiment span in tree:\n%s", out)
	}
	if !strings.Contains(out, "qhorn_experiments_total 1") {
		t.Errorf("exposition missing qhorn_experiments_total:\n%s", out)
	}
}
