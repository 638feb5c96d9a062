// Command qhornfuzz drives the differential-testing engine
// (internal/difffuzz): it cross-validates the exact learners, the
// verification-set construction, brute-force learning, and
// ground-truth semantics against each other on seeded random queries
// and adversarial mutants, shrinks any disagreement to a
// locally-minimal repro, and writes repros to a replayable corpus.
//
// Usage:
//
//	qhornfuzz -runs 500 -seed 1                 # the CI smoke run
//	qhornfuzz -class qhorn1 -runs 200           # restrict the class
//	qhornfuzz -corpus internal/difffuzz/testdata/corpus   # replay repros
//	qhornfuzz -runs 500 -minimize -repro-dir /tmp/repros  # shrink + persist
//
// Exit status is 0 when every judgment agreed, 1 on any disagreement,
// 2 on usage errors. The shared observability flags (-trace,
// -metrics, -trace-out, -profile) report where the questions went;
// -obs-addr serves /metrics, /spans, /progress, /healthz and
// /debug/pprof live while the fuzzer runs (docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qhorn/internal/difffuzz"
	"qhorn/internal/obs"
	"qhorn/internal/query"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	_ = stdin
	fs := flag.NewFlagSet("qhornfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed         = fs.Int64("seed", 1, "seed for the deterministic case generator")
		runs         = fs.Int("runs", 100, "number of generated learning cases (each adds a derived verify case)")
		class        = fs.String("class", "both", "hidden-query class: qhorn1, rp, or both")
		minVars      = fs.Int("min-n", 2, "smallest universe size")
		maxVars      = fs.Int("max-n", 8, "largest universe size")
		minimize     = fs.Bool("minimize", false, "shrink each disagreement to a locally-minimal repro")
		corpus       = fs.String("corpus", "", "replay the *.repro corpus in this directory instead of generating cases")
		reproDir     = fs.String("repro-dir", "", "write a .repro file for each (minimized) disagreement to this directory")
		inject       = fs.Bool("inject", false, "corrupt the learner's output (drop its first expression) to demonstrate detection, minimization, and repro writing")
		matrix       = fs.Bool("matrix", false, "add the run-engine options-matrix judge: replay each case through every engine option combination (docs/ENGINE.md)")
		bruteN       = fs.Int("brute-n", 0, "largest universe for the exhaustive brute cross-check (0 = default 4, negative disables)")
		bruteSampleN = fs.Int("brute-sample-n", 0, "largest universe for the sampled brute cross-check (0 = default 5, negative disables)")
		quiet        = fs.Bool("q", false, "suppress the progress line")
	)
	obsFlags := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var cls difffuzz.Class
	switch *class {
	case "qhorn1":
		cls = difffuzz.ClassQhorn1
	case "rp":
		cls = difffuzz.ClassRP
	case "both", "":
	default:
		fmt.Fprintf(stderr, "qhornfuzz: unknown -class %q (want qhorn1, rp, or both)\n", *class)
		return 2
	}
	session, err := obsFlags.Start(stdout)
	if err != nil {
		return fail(stderr, err)
	}
	defer session.Close()

	var opt difffuzz.Options
	opt.EngineMatrix = *matrix
	opt.BruteVars = *bruteN
	opt.BruteSampleVars = *bruteSampleN
	if *inject {
		opt.Warp = dropFirstExpr
		fmt.Fprintln(stdout, "INJECTING a bug into the learner's output: disagreements below are expected")
	}
	var disagreements []difffuzz.Disagreement
	if *corpus != "" {
		cases, err := difffuzz.LoadCorpus(*corpus)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "replaying %d corpus case(s) from %s\n", len(cases), *corpus)
		questions := 0
		for _, c := range cases {
			res := difffuzz.CheckCase(c, opt)
			questions += res.Questions
			disagreements = append(disagreements, res.Disagreements...)
		}
		fmt.Fprintf(stdout, "membership questions: %d\ndisagreements: %d\n", questions, len(disagreements))
	} else {
		cfg := difffuzz.Config{
			Seed: *seed, Runs: *runs, Class: cls,
			MinVars: *minVars, MaxVars: *maxVars, Options: opt,
			Spans: session.Tracer, Metrics: session.Metrics,
		}
		if !*quiet {
			cfg.Progress = func(done, total int) {
				if done%100 == 0 || done == total {
					fmt.Fprintf(stdout, "… %d/%d cases\n", done, total)
				}
			}
		}
		rep := difffuzz.Run(cfg)
		fmt.Fprintln(stdout, rep.Summary())
		disagreements = rep.Disagreements
	}

	if len(disagreements) == 0 {
		if err := session.Close(); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	for _, d := range disagreements {
		if *minimize {
			small := difffuzz.Minimize(d.Case, func(c difffuzz.Case) bool {
				return len(difffuzz.CheckCase(c, opt).Disagreements) > 0
			})
			res := difffuzz.CheckCase(small, opt)
			if len(res.Disagreements) > 0 {
				d = res.Disagreements[0]
			}
			fmt.Fprintf(stdout, "MINIMIZED %s\n", d)
		} else {
			fmt.Fprintf(stdout, "DISAGREEMENT %s\n", d)
		}
		if *reproDir != "" {
			path, err := difffuzz.WriteRepro(*reproDir, d)
			if err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stdout, "  repro written to %s\n", path)
		}
	}
	return 1
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "qhornfuzz: %v\n", err)
	return 1
}

// dropFirstExpr is the -inject bug: the learner "forgets" the first
// expression it learned, which every downstream judge must catch.
func dropFirstExpr(q query.Query) query.Query {
	if len(q.Exprs) == 0 {
		return q
	}
	out, err := query.New(q.U, q.Exprs[1:]...)
	if err != nil {
		return q
	}
	return out
}
