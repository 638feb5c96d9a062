package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSummary(t *testing.T, name, experiment string, speedups ...string) string {
	t.Helper()
	rows := make([]string, len(speedups))
	for i, s := range speedups {
		rows[i] = `["` + string(rune('2'+i)) + `", "` + s + `"]`
	}
	doc := `{"experiment": "` + experiment + `", "quick": true, "tables": [
		{"title": "E27 brute — per-learn", "columns": ["n", "speedup"],
		 "rows": [` + strings.Join(rows, ",") + `]}]}`
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePassesWithinTolerance(t *testing.T) {
	committed := writeSummary(t, "committed.json", "brute", "80.0", "21.0")
	fresh := writeSummary(t, "fresh.json", "brute", "30.0", "9.0")
	if err := gate(committed, fresh, 0.35); err != nil {
		t.Fatalf("in-tolerance comparison failed: %v", err)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	committed := writeSummary(t, "committed.json", "brute", "80.0")
	fresh := writeSummary(t, "fresh.json", "brute", "10.0")
	err := gate(committed, fresh, 0.35)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("regression not caught: %v", err)
	}
	if !strings.Contains(err.Error(), "10.00× vs committed 80.00×") {
		t.Errorf("regression message lacks the numbers: %v", err)
	}
}

func TestGateSkipsRowsMissingFromFresh(t *testing.T) {
	// Quick mode sweeps fewer n values; extra committed rows are not
	// an error as long as something overlaps.
	committed := writeSummary(t, "committed.json", "brute", "80.0", "21.0", "5.0")
	fresh := writeSummary(t, "fresh.json", "brute", "70.0")
	if err := gate(committed, fresh, 0.35); err != nil {
		t.Fatalf("subset comparison failed: %v", err)
	}
}

func TestGateErrors(t *testing.T) {
	committed := writeSummary(t, "committed.json", "brute", "80.0")
	other := writeSummary(t, "other.json", "revise", "80.0")
	if err := gate(committed, other, 0.35); err == nil || !strings.Contains(err.Error(), "experiment mismatch") {
		t.Errorf("experiment mismatch accepted: %v", err)
	}
	if err := gate(committed, filepath.Join(t.TempDir(), "absent.json"), 0.35); err == nil {
		t.Error("missing fresh file accepted")
	}
	if err := gate(filepath.Join(t.TempDir(), "absent.json"), committed, 0.35); err == nil {
		t.Error("missing committed file accepted")
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(committed, bad, 0.35); err == nil {
		t.Error("malformed JSON accepted")
	}

	// A summary with no speedup columns cannot be gated on.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"experiment": "brute", "tables": [{"title": "t", "columns": ["n"], "rows": [["2"]]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(empty, committed, 0.35); err == nil || !strings.Contains(err.Error(), "no speedup or reduction columns") {
		t.Errorf("ratio-free committed summary accepted: %v", err)
	}

	// Overlap can also be empty when parameter values disagree.
	shifted := filepath.Join(t.TempDir(), "shifted.json")
	if err := os.WriteFile(shifted, []byte(`{"experiment": "brute", "tables": [{"title": "E27 brute — per-learn", "columns": ["n", "speedup"], "rows": [["9", "3.0"]]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(committed, shifted, 0.35); err == nil || !strings.Contains(err.Error(), "no overlapping") {
		t.Errorf("disjoint rows accepted: %v", err)
	}
}

// writeWireSummary builds a summary in the shape of a wire-mode
// table: a speedup column and a reduction column side by side, both
// of which must be gated.
func writeWireSummary(t *testing.T, name, speedup, reduction string) string {
	t.Helper()
	doc := `{"experiment": "load", "quick": true, "tables": [
		{"title": "E28 load — wire modes", "columns": ["alg/wire", "wall ms", "speedup vs single", "rt reduction"],
		 "rows": [["qhorn1/fused", "140.0", "` + speedup + `", "` + reduction + `"]]}]}`
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateCoversReductionColumns(t *testing.T) {
	committed := writeWireSummary(t, "committed.json", "2.70", "3.35")
	// Healthy speedup but collapsed round-trip reduction: the
	// reduction column alone must trip the gate.
	fresh := writeWireSummary(t, "fresh.json", "2.60", "1.01")
	err := gate(committed, fresh, 0.35)
	if err == nil || !strings.Contains(err.Error(), "rt reduction") {
		t.Fatalf("reduction regression not caught: %v", err)
	}
	ok := writeWireSummary(t, "ok.json", "2.60", "3.10")
	if err := gate(committed, ok, 0.35); err != nil {
		t.Fatalf("in-tolerance reduction failed: %v", err)
	}
}

func TestGateAgainstRealCommittedSummary(t *testing.T) {
	// Each committed summary compared against itself is the identity
	// gate — every format assumption checked on real data.
	for _, name := range []string{"BENCH_brute.json", "BENCH_revise.json"} {
		real := filepath.Join("..", "..", name)
		if _, err := os.Stat(real); err != nil {
			t.Fatalf("committed summary %s missing: %v", name, err)
		}
		if err := gate(real, real, 0.35); err != nil {
			t.Fatalf("self-comparison of %s failed: %v", name, err)
		}
	}
}
