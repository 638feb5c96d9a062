// Package exp implements the experiment harness that regenerates
// every table and figure of the paper's evaluation (see DESIGN.md,
// "Per-experiment index"). Each experiment produces one or more
// stats.Tables comparing the paper's claim with the measured
// behaviour of the implementations in internal/learn, internal/verify
// and internal/brute.
package exp

import (
	"fmt"
	"sort"

	"qhorn/internal/obs"
	"qhorn/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all random generation; runs are deterministic per
	// seed.
	Seed int64
	// Trials is the number of random targets per parameter point.
	Trials int
	// Quick shrinks the parameter sweeps for fast smoke runs.
	Quick bool
	// Metrics, when non-nil, receives what the experiments' hand-built
	// oracle stacks record (question counts, ask latency, brute matrix
	// timings), so a live -obs-addr server shows them mid-run.
	Metrics *obs.Registry
}

// DefaultConfig is used when fields are zero.
var DefaultConfig = Config{Seed: 1, Trials: 20}

// normalize fills zero fields from DefaultConfig.
func (c Config) normalize() Config {
	if c.Seed == 0 {
		c.Seed = DefaultConfig.Seed
	}
	if c.Trials <= 0 {
		c.Trials = DefaultConfig.Trials
	}
	return c
}

// Experiment is one reproducible row of the evaluation.
type Experiment struct {
	// ID is the DESIGN.md experiment id, e.g. "E1".
	ID string
	// Name is the CLI name, e.g. "qhorn1-scaling".
	Name string
	// Paper cites the theorem/figure being reproduced.
	Paper string
	// Claim states the paper's claim in one line.
	Claim string
	// Run executes the experiment and returns its tables.
	Run func(Config) []*stats.Table
}

// registry holds all experiments in DESIGN.md order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in DESIGN.md order (by numeric ID).
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool {
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

// idNum parses the numeric part of an "E<n>" id; malformed ids sort
// last.
func idNum(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "E%d", &n); err != nil {
		return 1 << 30
	}
	return n
}

// ByName returns the experiment with the given CLI name or ID.
func ByName(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name || e.ID == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// header returns a table title combining id, citation and claim.
func header(e Experiment) string {
	return fmt.Sprintf("%s %s — %s (claim: %s)", e.ID, e.Name, e.Paper, e.Claim)
}
