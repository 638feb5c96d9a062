// Command bench is the qhorn benchmark. It runs three session-shaped
// workloads against the program's public API, checks every output, and
// prints end-to-end metrics; with -trace it adds a traced run that
// breaks each op's wall time into per-layer rows. See README.md.
//
//	go run . -workload http-qhorn1 -seed 1 -seconds 10 -trace 0
//
// Each workload runs in its own child process (the command re-executes
// itself with -child), so peak RSS and heap state are per workload. The
// last line of the output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// The HTTP workloads run two workers, one per core of the two-core
// machine they were sized on: client and server goroutines hand off to
// each other on every request, and with a core left idle each hand-off
// pays the wake-up of a halted virtual CPU. The in-process workload
// runs one worker: with both cores busy, a round waits for whichever
// worker the host slowed, while one worker leaves the other core to the
// garbage collector and the host.
var workloads = []workloadSpec{
	{name: "http-qhorn1", setup: newHTTPQhorn1, workers: 2,
		rows: []string{"user", "query.eval", "serve.transport", "serve.handler_self", "learn", "session"}},
	{name: "http-rp-mixed", setup: newHTTPRPMixed, workers: 2,
		rows: []string{"user", "query.eval", "serve.transport", "serve.handler_self", "learn", "session", "verify", "revise"}},
	{name: "direct-rp", setup: newDirectBench, workers: 1,
		rows: []string{"learn", "session", "query.eval"}},
}

// metric names a reported metric and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are reported by an untraced run, perLayerMetrics by a
// traced one, in this order; BENCHMARK.json lists the same names.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_p50_ms", "ms"},
	{"next_question_p50_ms", "ms"},
	{"first_question_p50_ms", "ms"},
	{"questions_per_op", "q/op"},
	{"round_trips_per_op", "rt/op"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// The 99th percentiles of the op and next-question latencies lead the
// per-layer metrics: on a shared host they doubled or tripled for
// minutes at a time while the medians moved far less, so no bound an
// end-to-end metric may have holds them (README.md).
var perLayerMetrics = []metric{
	{"op_p99_ms", "ms"},
	{"next_question_p99_ms", "ms"},
	{"serve.handler_us.answers", "us"},
	{"serve.handler_us.questions", "us"},
	{"serve.handler_us.create", "us"},
	{"serve.handler_us.amend", "us"},
	{"serve.transport_us_per_rt", "us"},
	{"serve.questions_per_rt", "q/rt"},
	{"serve.memo_saved_frac", "ratio"},
	{"serve.next_question_p999_ms", "ms"},
	{"serve.first_question_p99_ms", "ms"},
	{"session.us_per_question", "us"},
	{"learn.us_per_question", "us"},
	{"learn.batches_per_op", "batches"},
	{"verify.build_us", "us"},
	{"revise.us_per_amend", "us"},
	{"revise.questions_per_amend", "q"},
	{"query.eval_ns_per_question", "ns"},
	{"user.answer_us_per_question", "us"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.residual_frac", "ratio"},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run; empty runs them all")
	seed := fs.Int64("seed", 1, "input seed (1 is the default seed, 2 the held-out one)")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload")
	traceArg := fs.String("trace", "0", `"0" runs untraced and reports end-to-end metrics; "1" or a directory adds a traced run, reports per-layer metrics and writes spans.jsonl and layers.json to the directory (.bench_build/trace for "1")`)
	child := fs.Bool("child", false, "run one workload in this process and print its raw result (the parent passes it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if *workload != "" {
		if _, ok := lookupWorkload(*workload); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	}
	traceDir := traceDirOf(*traceArg)
	cfg := config{
		seed:     *seed,
		seconds:  *seconds,
		trace:    traceDir != "",
		traceDir: traceDir,
	}

	if *child {
		res, err := runWorkload(names[0], cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		return 0
	}

	if cfg.trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if err := os.WriteFile(filepath.Join(traceDir, "spans.jsonl"), nil, 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	md := collectMeta(cfg)
	fmt.Fprintln(stdout, md)
	status := 0
	var traced []tracedReport
	for _, name := range names {
		res, err := runChild(name, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 2
		}
		printReport(stdout, res)
		if err := printResultLine(stdout, res, cfg.trace); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if !res.Correct {
			status = 1
		}
		if res.Layers != nil {
			traced = append(traced, tracedReport{Layers: res.Layers, PerLayer: res.PerLayer})
		}
	}
	if cfg.trace {
		data, err := json.MarshalIndent(layersFile{Meta: md, Workloads: traced}, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(traceDir, "layers.json"), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	return status
}

// traceDirOf maps the -trace argument to the trace directory, "" when
// tracing is off.
func traceDirOf(arg string) string {
	switch arg {
	case "", "0":
		return ""
	case "1":
		return filepath.Join(".bench_build", "trace")
	}
	return arg
}

// runChild runs one workload in a child process and reads its result.
func runChild(name string, cfg config, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = cfg.traceDir
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("reading the workload process's result: %w", err)
	}
	return &res, nil
}

// resultLine is the JSON object closing each workload's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf returns the metrics one result reports: the end-to-end ones
// untraced, the per-layer ones traced.
func metricsOf(res *result, traced bool) map[string]metricValue {
	list, values := endToEndMetrics, res.EndToEnd
	if traced {
		list, values = perLayerMetrics, res.PerLayer
	}
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		out[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return out
}

func printResultLine(w io.Writer, res *result, traced bool) error {
	data, err := json.Marshal(resultLine{
		Correct:   res.Correct,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   metricsOf(res, traced),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printReport writes one workload's human-readable report.
func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s: workers %d, %d ops per round, %d measured rounds after a warm-up", res.Workload, res.Workers, res.OpsPerRound, res.Rounds)
	if res.TracedRounds > 0 {
		fmt.Fprintf(w, ", %d traced rounds", res.TracedRounds)
	}
	fmt.Fprintf(w, "; %d of %d ops failed\n", res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   FAIL %s\n", e)
	}
	samples := map[string]string{
		"op_p50_ms": "op", "op_p99_ms": "op",
		"next_question_p50_ms": "next_question", "next_question_p99_ms": "next_question",
		"first_question_p50_ms": "first_question",
	}
	printMetrics := func(list []metric, values map[string]float64) {
		for _, m := range list {
			fmt.Fprintf(w, "   %-30s %14.6g %-6s", m.name, values[m.name], m.unit)
			if s, ok := samples[m.name]; ok {
				fmt.Fprintf(w, " (%d samples)", res.Samples[s])
			}
			fmt.Fprintln(w)
		}
	}
	printMetrics(endToEndMetrics, res.EndToEnd)
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(w, "   -- per layer\n")
	printMetrics(perLayerMetrics, res.PerLayer)
	fmt.Fprintf(w, "   -- traced op wall time %.1f us over %d ops\n", res.Layers.OpWallUS, res.Layers.Ops)
	for _, r := range res.Layers.Rows {
		fmt.Fprintf(w, "   %-30s %14.1f us %6.1f%%\n", r.Layer, r.USPerOp, 100*r.Share)
	}
}

// meta is the machine and run description printed with every report.
type meta struct {
	Go         string  `json:"go"`
	OS         string  `json:"goos"`
	Arch       string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func (m meta) String() string {
	return fmt.Sprintf("# qhorn bench: %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d seconds=%g",
		m.Go, m.OS, m.Arch, m.GOMAXPROCS, m.NumCPU, m.CPU, m.Commit, m.Seed, m.Seconds)
}

func collectMeta(cfg config) meta {
	return meta{
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     commit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
	}
}

// cpuModel reads the first model name of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out commit when run from the root of a git
// work tree, else "unknown".
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// layersFile is the layout of layers.json.
type layersFile struct {
	Meta      meta           `json:"meta"`
	Workloads []tracedReport `json:"workloads"`
}

type tracedReport struct {
	Layers   *layerReport       `json:"layers"`
	PerLayer map[string]float64 `json:"per_layer"`
}
