package exp

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"qhorn/internal/stats"
)

// TestSummarizeExtractsMeasurements pins the table→JSON extraction:
// measured growth exponents come out of notes (claim references do
// not) and question counts out of the first questions column.
func TestSummarizeExtractsMeasurements(t *testing.T) {
	e := Experiment{ID: "E99", Name: "bench-fixture", Paper: "Thm X", Claim: "c"}
	tbl := stats.NewTable("fixture", "n", "questions (mean)", "questions / (n·lg n)")
	tbl.AddRow(8, 24.5, 1.02)
	tbl.AddRow(16, 61.0, 0.95)
	tbl.AddNote("growth exponent: learner 1.18 (n lg n ⇒ ≈1.0–1.4), serial baseline 2.01 (n² ⇒ ≈2.0)")
	tbl.AddNote("unrelated note with a number 3.14159")

	s := Summarize(e, Config{Seed: 7, Trials: 3}, []*stats.Table{tbl}, 250*time.Millisecond)

	if s.Experiment != "bench-fixture" || s.ID != "E99" || s.Seed != 7 || s.Trials != 3 {
		t.Errorf("header fields wrong: %+v", s)
	}
	if s.WallSeconds != 0.25 {
		t.Errorf("wall = %v", s.WallSeconds)
	}
	if len(s.GrowthExponents) != 2 {
		t.Fatalf("exponents = %+v, want the two measured values", s.GrowthExponents)
	}
	if s.GrowthExponents[0].Value != 1.18 || s.GrowthExponents[1].Value != 2.01 {
		t.Errorf("exponent values %+v", s.GrowthExponents)
	}
	if len(s.QuestionCounts) != 2 {
		t.Fatalf("question counts = %+v", s.QuestionCounts)
	}
	qc := s.QuestionCounts[0]
	if qc.Param != "n" || qc.ParamVal != "8" || qc.Questions != 24.5 {
		t.Errorf("first question count %+v", qc)
	}
	if qc.Stddev != 0 || qc.Samples != 1 {
		t.Errorf("single-row aggregate %+v, want stddev 0 and 1 sample", qc)
	}
	if s.FileName() != "BENCH_bench-fixture.json" {
		t.Errorf("file name %q", s.FileName())
	}
	// The bloat fix: per-measurement entries carry the short table key,
	// the legend states the full title once, and the table itself keeps
	// both (benchgate matches on the title).
	if s.Tables[0].Key != "t1" || s.TableLegend["t1"] != "fixture" {
		t.Errorf("table key/legend wrong: key=%q legend=%v", s.Tables[0].Key, s.TableLegend)
	}
	if qc.Table != "t1" || s.GrowthExponents[0].Table != "t1" {
		t.Errorf("measurements reference %q and %q, want the short key t1", qc.Table, s.GrowthExponents[0].Table)
	}
}

// TestSummarizeAggregatesQuestionCounts pins the question-count
// duplication fix: rows repeating a parameter value across a second
// sweep dimension (here a worker count) collapse into one entry per
// (table, param, param_value), with mean and stddev over the rows.
func TestSummarizeAggregatesQuestionCounts(t *testing.T) {
	e := Experiment{ID: "E98", Name: "agg-fixture"}
	tbl := stats.NewTable("sweep", "class", "workers", "questions")
	tbl.AddRow("qhorn1", 1, 34.45)
	tbl.AddRow("qhorn1", 2, 34.45)
	tbl.AddRow("qhorn1", 4, 34.45)
	tbl.AddRow("rp", 1, 100.0)
	tbl.AddRow("rp", 2, 104.0)

	s := Summarize(e, Config{}, []*stats.Table{tbl}, time.Millisecond)
	if len(s.QuestionCounts) != 2 {
		t.Fatalf("question counts = %+v, want one per param value", s.QuestionCounts)
	}
	q1, rp := s.QuestionCounts[0], s.QuestionCounts[1]
	if q1.ParamVal != "qhorn1" || q1.Questions != 34.45 || q1.Stddev != 0 || q1.Samples != 3 {
		t.Errorf("qhorn1 aggregate %+v", q1)
	}
	if rp.ParamVal != "rp" || rp.Questions != 102.0 || rp.Samples != 2 {
		t.Errorf("rp aggregate %+v", rp)
	}
	if rp.Stddev < 1.99 || rp.Stddev > 2.01 {
		t.Errorf("rp stddev %v, want 2.0", rp.Stddev)
	}
}

// TestBenchRunsRealExperiment runs the smallest real experiment in
// quick mode end to end and checks the JSON round-trips.
func TestBenchRunsRealExperiment(t *testing.T) {
	e, ok := ByName("qhorn1-scaling")
	if !ok {
		t.Skip("qhorn1-scaling not registered")
	}
	s, tables := Bench(e, Config{Seed: 1, Trials: 2, Quick: true})
	if len(tables) == 0 || len(s.Tables) != len(tables) {
		t.Fatalf("tables missing: %d vs %d", len(tables), len(s.Tables))
	}
	if s.WallSeconds <= 0 {
		t.Error("wall time not measured")
	}
	if len(s.GrowthExponents) == 0 {
		t.Error("no growth exponents extracted from a scaling experiment")
	}
	if len(s.QuestionCounts) == 0 {
		t.Error("no question counts extracted from a scaling experiment")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchSummary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v\n%s", err, buf.String())
	}
	if back.Experiment != "qhorn1-scaling" {
		t.Errorf("round-tripped experiment %q", back.Experiment)
	}
	if !strings.Contains(buf.String(), `"wall_seconds"`) {
		t.Error("JSON missing wall_seconds")
	}
}

// TestBenchSummaryRecordsMachine: WriteJSON emits the machine and build
// metadata beside the tables.
func TestBenchSummaryRecordsMachine(t *testing.T) {
	s := Summarize(Experiment{Name: "machine"}, Config{}.normalize(), nil, time.Second)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
	}
	for k, v := range want {
		if back[k] != v {
			t.Errorf("%s = %v, want %v", k, back[k], v)
		}
	}
	if _, ok := back["cpu_model"].(string); !ok {
		t.Errorf("cpu_model missing: %s", buf.String())
	}
	if c, _ := back["commit"].(string); c == "" {
		t.Errorf("commit missing or empty: %s", buf.String())
	}
}
