package exp

import (
	"bytes"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current code")

const experimentsGolden = "testdata/experiments.golden"

func quickCfg() Config { return Config{Seed: 3, Trials: 3, Quick: true} }

// TestExperimentsGolden pins every table of `qhornexp -exp all -seed 1
// -quick`, rendered as that command prints it: titles, rows and notes,
// so question counts and growth exponents alike. No experiment reads
// a clock, so the rendering is deterministic per seed. Regenerate
// deliberately with
//
//	go test ./internal/exp -run TestExperimentsGolden -update
//
// and name the moved rows and the reason in CHANGES.md.
func TestExperimentsGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range All() {
		for _, tb := range e.Run(Config{Seed: 1, Trials: DefaultConfig.Trials, Quick: true}) {
			b.WriteString(tb.Text())
			b.WriteString("\n")
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(experimentsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("%s line %d:\n  golden %s\n  now    %s", experimentsGolden, i+1, w, g)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"qhorn1-scaling", "universal-scaling", "existential-scaling",
		"alias-lowerbound", "pair-lowerbound", "body-lowerbound",
		"verification-cost", "fig7", "fig8", "worked-example",
		"learn-vs-verify", "data-domain",
		"revision", "pac-learning", "noisy-amendment", "ablation", "deep-nesting", "summary", "teaching-sets", "fig5", "partial-verification", "noise-sensitivity",
		"revise", "brute",
	}
	for _, name := range want {
		e, ok := ByName(name)
		if !ok {
			t.Errorf("experiment %q not registered", name)
			continue
		}
		if e.ID == "" || e.Paper == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete: %+v", name, e)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByName("E4"); !ok {
		t.Error("lookup by ID failed")
	}
	for _, name := range []string{"nope", "serve", "load", "parallel", "kernel", "obs"} {
		if _, ok := ByName(name); ok {
			t.Errorf("lookup of unknown experiment %q succeeded", name)
		}
	}
}

// TestAllExperimentsRun smoke-runs every experiment in quick mode and
// checks each produces at least one non-empty table.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tables := e.Run(quickCfg())
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				if out := tb.Text(); len(out) == 0 {
					t.Errorf("table %q renders empty", tb.Title)
				}
			}
		})
	}
}

func TestAliasLowerBoundMatches(t *testing.T) {
	e, _ := ByName("alias-lowerbound")
	tables := e.Run(quickCfg())
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("alias lower bound row mismatch: %v", row)
		}
	}
}

func TestBodyLowerBoundForcesClassSizeMinusOne(t *testing.T) {
	e, _ := ByName("body-lowerbound")
	tables := e.Run(quickCfg())
	for _, row := range tables[0].Rows {
		classSize, err1 := strconv.Atoi(row[2])
		questions, err2 := strconv.Atoi(row[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %v", row)
		}
		if questions != classSize-1 {
			t.Errorf("θ=%s n=%s: %d questions, want class size − 1 = %d",
				row[0], row[1], questions, classSize-1)
		}
	}
}

func TestFig8HasNoMissedCells(t *testing.T) {
	e, _ := ByName("fig8")
	tables := e.Run(quickCfg())
	for _, row := range tables[0].Rows {
		for _, cell := range row {
			if cell == "MISSED" || cell == "FALSE-ALARM" {
				t.Fatalf("Theorem 4.2 violated in Fig 8 reproduction: %v", row)
			}
		}
	}
}

func TestWorkedExampleSelfConsistent(t *testing.T) {
	e, _ := ByName("worked-example")
	tables := e.Run(quickCfg())
	found := false
	for _, n := range tables[0].Notes {
		if strings.Contains(n, "self-consistent: true") {
			found = true
		}
	}
	if !found {
		t.Error("worked example not reported self-consistent")
	}
}

func TestDataDomainLearnsIntendedQuery(t *testing.T) {
	e, _ := ByName("data-domain")
	tables := e.Run(quickCfg())
	run := tables[1]
	if run.Rows[0][2] != "true" {
		t.Errorf("end-to-end learning not equivalent: %v", run.Rows[0])
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Seed != DefaultConfig.Seed || c.Trials != DefaultConfig.Trials {
		t.Errorf("normalize = %+v", c)
	}
	c = Config{Seed: 9, Trials: 5}.normalize()
	if c.Seed != 9 || c.Trials != 5 {
		t.Errorf("normalize clobbered fields: %+v", c)
	}
}

func TestHeaderFormat(t *testing.T) {
	e, _ := ByName("fig7")
	h := header(e)
	for _, want := range []string{"E8", "fig7", "Fig 7"} {
		if !strings.Contains(h, want) {
			t.Errorf("header %q missing %q", h, want)
		}
	}
}

func TestFig5ReproducesPaperTuples(t *testing.T) {
	e, _ := ByName("fig5")
	tables := e.Run(quickCfg())
	arts := tables[1]
	want := map[string]bool{
		"100101": false, "001101": false, "110010": false, // universal
		"100110": false, "111001": false, "011110": false,
		"110011": false, "011011": false, // existential
	}
	for _, row := range arts.Rows {
		tuple := row[len(row)-1]
		if _, ok := want[tuple]; ok {
			want[tuple] = true
		} else {
			t.Errorf("unexpected distinguishing tuple %s", tuple)
		}
	}
	for tuple, seen := range want {
		if !seen {
			t.Errorf("missing distinguishing tuple %s", tuple)
		}
	}
}

func TestSummaryAllPass(t *testing.T) {
	e, _ := ByName("summary")
	tables := e.Run(quickCfg())
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "PASS" {
			t.Errorf("reproduction gate failed: %v", row)
		}
	}
}
