// Command qhornexp regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	qhornexp -list
//	qhornexp -exp qhorn1-scaling [-seed 1] [-trials 20] [-format text|markdown|csv]
//	qhornexp -exp all -quick
//	qhornexp -exp summary          # hard pass/fail reproduction gate
//	qhornexp -exp brute -obs-addr :6060    # watch /metrics, /spans, /progress live
//
// With -obs-addr the run serves its metrics registry, span flight
// recorder and runtime profiles over HTTP while experiments execute;
// -obs-wait keeps the server up after the run so a finished sweep can
// still be inspected (docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"qhorn/internal/exp"
	"qhorn/internal/obs"
	"qhorn/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI with explicit streams so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qhornexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("exp", "all", "experiment name or ID (see -list), or \"all\"")
		seed    = fs.Int64("seed", 1, "random seed")
		trials  = fs.Int("trials", 20, "trials per parameter point")
		quick   = fs.Bool("quick", false, "shrink parameter sweeps for a fast run")
		format  = fs.String("format", "text", "output format: text, markdown or csv")
		list    = fs.Bool("list", false, "list experiments and exit")
		outPath = fs.String("out", "", "write output to file instead of stdout")
		outDir  = fs.String("outdir", "", "write one markdown file per experiment into this directory")
	)
	obsFlags := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "markdown" && *format != "csv" {
		fmt.Fprintf(stderr, "qhornexp: unknown format %q (want text, markdown or csv)\n", *format)
		return 2
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-4s %-22s %s\n     claim: %s\n", e.ID, e.Name, e.Paper, e.Claim)
		}
		return 0
	}

	var experiments []exp.Experiment
	if *name == "all" {
		experiments = exp.All()
	} else {
		e, ok := exp.ByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "qhornexp: unknown experiment %q; try -list\n", *name)
			return 2
		}
		experiments = []exp.Experiment{e}
	}

	session, err := obsFlags.Start(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "qhornexp: %v\n", err)
		return 1
	}
	defer session.Close()

	// -out is opened last, and only when the tables go to it (-outdir
	// writes markdown files instead), so a failed start never empties
	// an existing file.
	out := stdout
	if *outPath != "" && *outDir == "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "qhornexp: %v\n", err)
			return 1
		}
		defer f.Close()
		out = f
	}

	cfg := exp.Config{Seed: *seed, Trials: *trials, Quick: *quick, Metrics: session.Metrics}
	// runExperiment wraps one experiment in a span, which records its
	// duration, and counts it.
	runExperiment := func(e exp.Experiment) []*stats.Table {
		sp := session.Tracer.StartSpan("experiment",
			obs.A("id", e.ID), obs.A("name", e.Name))
		tables := e.Run(cfg)
		sp.End()
		session.Metrics.Counter(obs.MetricExperiments).Inc()
		return tables
	}
	render := func(t *stats.Table) string {
		switch *format {
		case "markdown":
			return t.Markdown()
		case "csv":
			return t.CSV()
		default:
			return t.Text()
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "qhornexp: %v\n", err)
			return 1
		}
	}
	for _, e := range experiments {
		tables := runExperiment(e)
		if *outDir != "" {
			var b strings.Builder
			fmt.Fprintf(&b, "# %s — %s\n\n%s\n\nClaim: %s\n\n", e.ID, e.Name, e.Paper, e.Claim)
			for _, t := range tables {
				b.WriteString(t.Markdown())
				b.WriteString("\n")
			}
			path := filepath.Join(*outDir, fmt.Sprintf("%s-%s.md", e.ID, e.Name))
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				fmt.Fprintf(stderr, "qhornexp: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		} else {
			for _, t := range tables {
				fmt.Fprintln(out, render(t))
			}
		}
	}
	if err := session.Close(); err != nil {
		fmt.Fprintf(stderr, "qhornexp: %v\n", err)
		return 1
	}
	return 0
}
