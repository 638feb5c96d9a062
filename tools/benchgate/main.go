// Command benchgate compares a freshly measured BENCH_<exp>.json
// against the committed copy and fails when a speedup or reduction
// column regresses below a fraction of the committed value.
//
// CI runs the experiments in quick mode on shared runners, so
// absolute times are noisy; what must not regress is the *relative*
// win — compiled vs interpreted evaluation, matrix vs serial brute
// learning, warm revision vs cold relearn. The gate therefore
// compares only ratio columns — headers containing "speedup"
// (throughput ratios) or "reduction" (round-trip ratios) — row by
// row (matched by table title and first-column parameter), and
// tolerates a generous ratio:
//
//	benchgate -committed BENCH_revise.json -fresh fresh.json -min-ratio 0.35
//
// passes while every fresh speedup is at least 35% of its committed
// counterpart. Rows present in only one file (quick mode sweeps a
// subset) are skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// summary mirrors the slice of exp.BenchSummary the gate needs.
type summary struct {
	Experiment string  `json:"experiment"`
	Quick      bool    `json:"quick"`
	Tables     []table `json:"tables"`
}

type table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func load(path string) (summary, error) {
	var s summary
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// noiseFloorMS: a speedup whose baseline time is this small is timer
// noise, not a measurement — its row is excluded from the gate.
const noiseFloorMS = 0.05

// ratios extracts every gated ratio cell — speedup and reduction
// columns — of a summary keyed by
// "<table title>|<first column value>|<column name>". Rows whose
// baseline timing sits under the noise floor are skipped — a ratio
// against a sub-tick time carries no signal.
func ratios(s summary) map[string]float64 {
	out := make(map[string]float64)
	for _, t := range s.Tables {
		for ci, col := range t.Columns {
			lower := strings.ToLower(col)
			if !strings.Contains(lower, "speedup") && !strings.Contains(lower, "reduction") {
				continue
			}
			for _, row := range t.Rows {
				if len(row) <= ci || len(row) == 0 || noisy(t.Columns, row) {
					continue
				}
				v, err := strconv.ParseFloat(strings.TrimSuffix(row[ci], "×"), 64)
				if err != nil {
					continue
				}
				out[t.Title+"|"+row[0]+"|"+col] = v
			}
		}
	}
	return out
}

// noisy reports whether the row's baseline timing — the first column
// whose header ends in " ms" (by layout convention the slow side:
// "interp ms", "serial ms") — is under the noise floor.
func noisy(columns, row []string) bool {
	for ci, col := range columns {
		if !strings.HasSuffix(col, " ms") || len(row) <= ci {
			continue
		}
		v, err := strconv.ParseFloat(row[ci], 64)
		return err == nil && v < noiseFloorMS
	}
	return false
}

// gate compares fresh against committed and returns one error listing
// every regression below minRatio.
func gate(committedPath, freshPath string, minRatio float64) error {
	committed, err := load(committedPath)
	if err != nil {
		return err
	}
	fresh, err := load(freshPath)
	if err != nil {
		return err
	}
	if committed.Experiment != fresh.Experiment {
		return fmt.Errorf("experiment mismatch: committed %q, fresh %q", committed.Experiment, fresh.Experiment)
	}
	base := ratios(committed)
	got := ratios(fresh)
	if len(base) == 0 {
		return fmt.Errorf("%s: no speedup or reduction columns to gate on", committedPath)
	}

	var regressions []string
	compared := 0
	for key, want := range base {
		have, ok := got[key]
		if !ok {
			continue // quick mode sweeps a subset of rows
		}
		compared++
		label := key
		if i := strings.LastIndex(key, "— "); i >= 0 {
			label = key[i+len("— "):]
		}
		if have < want*minRatio {
			regressions = append(regressions,
				fmt.Sprintf("  %s: fresh %.2f× vs committed %.2f× (floor %.2f×)", label, have, want, want*minRatio))
		} else {
			fmt.Printf("ok  %s: fresh %.2f× vs committed %.2f×\n", label, have, want)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no overlapping gated rows between %s and %s", committedPath, freshPath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("ratio regression below %.0f%% of committed:\n%s",
			minRatio*100, strings.Join(regressions, "\n"))
	}
	fmt.Printf("benchgate: %d ratio cells within tolerance\n", compared)
	return nil
}

func main() {
	committed := flag.String("committed", "", "committed benchmark summary")
	fresh := flag.String("fresh", "", "freshly measured benchmark summary")
	minRatio := flag.Float64("min-ratio", 0.35, "fresh speedup/reduction must be at least this fraction of committed")
	flag.Parse()
	if *committed == "" || *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -committed and -fresh are required")
		os.Exit(2)
	}
	if err := gate(*committed, *fresh, *minRatio); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
