package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileAgrees checks that BENCHMARK.json lists exactly the
// workloads and metrics, with their units, that the benchmark reports.
func TestBenchmarkFileAgrees(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, reported []metric) {
		if len(listed) != len(reported) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(reported))
			return
		}
		for i, m := range listed {
			if m.Name != reported[i].name || m.Unit != reported[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, m.Name, m.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
}

// TestWorkloadsSmoke runs every workload in process at a tiny size,
// untraced and traced rounds, twice with one seed. The counts must
// repeat exactly, no op may fail, every metric must be reported, and
// the layer rows must sum to the op wall time. It asserts no timing.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, trace: true, small: true}
			var runs [2]*result
			for k := range runs {
				res, err := runWorkload(w.name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct {
					t.Fatalf("run %d: %d of %d ops failed: %v", k, res.Failed, res.Attempted, res.Errors)
				}
				runs[k] = res
			}
			a, b := runs[0], runs[1]
			for _, k := range []string{"questions_per_op", "round_trips_per_op"} {
				if a.EndToEnd[k] != b.EndToEnd[k] {
					t.Errorf("%s differs between runs: %g, %g", k, a.EndToEnd[k], b.EndToEnd[k])
				}
			}
			for _, k := range []string{"serve.questions_per_rt", "serve.memo_saved_frac", "learn.batches_per_op", "revise.questions_per_amend"} {
				if a.PerLayer[k] != b.PerLayer[k] {
					t.Errorf("%s differs between runs: %g, %g", k, a.PerLayer[k], b.PerLayer[k])
				}
			}
			for _, m := range endToEndMetrics {
				if _, ok := a.EndToEnd[m.name]; !ok {
					t.Errorf("end-to-end metric %s not reported", m.name)
				}
			}
			for _, m := range perLayerMetrics {
				if _, ok := a.PerLayer[m.name]; !ok {
					t.Errorf("per-layer metric %s not reported", m.name)
				}
			}
			var sum float64
			for _, r := range a.Layers.Rows {
				sum += r.USPerOp
			}
			if math.Abs(sum-a.Layers.OpWallUS) > 1e-6*a.Layers.OpWallUS {
				t.Errorf("layer rows sum to %g us, op wall time is %g us", sum, a.Layers.OpWallUS)
			}
		})
	}
}

// TestResultLine checks the closing JSON line: exactly the keys
// correct, attempted, failed and metrics, each metric with its unit.
func TestResultLine(t *testing.T) {
	res := &result{Correct: true, Attempted: 3, EndToEnd: map[string]float64{"setup_s": 0.5}, PerLayer: map[string]float64{}}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := printResultLine(&buf, res, traced); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("result line keys: %s", buf.Bytes())
		}
		var ms map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		want := endToEndMetrics
		if traced {
			want = perLayerMetrics
		}
		if len(ms) != len(want) {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(ms), len(want))
		}
		for _, m := range want {
			if ms[m.name].Unit != m.unit {
				t.Errorf("traced=%v: metric %s has unit %q, want %q", traced, m.name, ms[m.name].Unit, m.unit)
			}
		}
	}
}
