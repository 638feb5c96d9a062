// Command qhornlearn runs an interactive (or simulated) query-
// learning session in the style of DataPlay: it presents concrete
// data objects — boxes of chocolates by default — and asks the user
// to classify each as an answer or a non-answer to her intended
// query, then prints the exactly-learned qhorn query.
//
// Usage:
//
//	qhornlearn                          # interactive, chocolate propositions
//	qhornlearn -class rp                # role-preserving learner
//	qhornlearn -simulate "∀x1 ∃x2x3"    # simulate the user with a target query
//	qhornlearn -n 5 -boolean            # 5 abstract propositions, Boolean display
//	qhornlearn -execute -sql            # after learning, run over a store & print SQL
//	qhornlearn -props p.json -data d.json
//
// With the default chocolate schema, the three propositions are
// x1: isDark, x2: hasFilling, x3: origin = Madagascar (Fig 1 of the
// paper).
//
// The shared observability flags apply: -obs-addr serves /metrics,
// /spans, /progress, /healthz and /debug/pprof live during the
// session (docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"regexp"
	"strconv"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/nested"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	engine "qhorn/internal/run"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qhornlearn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		class     = fs.String("class", "qhorn1", "query class to learn: qhorn1 or rp (role-preserving)")
		simulate  = fs.String("simulate", "", "simulate the user with this target query instead of asking")
		nVars     = fs.Int("n", 0, "number of abstract Boolean propositions (0 = use the chocolate schema)")
		boolMode  = fs.Bool("boolean", false, "show questions in the Boolean domain instead of as data objects")
		execute   = fs.Bool("execute", false, "after learning, execute the query over a random chocolate store")
		seed      = fs.Int64("seed", 1, "seed for the random store")
		propsPath = fs.String("props", "", "JSON file with the schema and propositions (see nested.EncodePropositions)")
		dataPath  = fs.String("data", "", "JSON dataset to select question tuples from and to execute over")
		printSQL  = fs.Bool("sql", false, "print the learned query as SQL")
		explain   = fs.Bool("explain", false, "print what each question was testing (phase and purpose)")
		propose   = fs.Bool("propose", false, "derive the propositions automatically from the -data dataset")
	)
	obsFlags := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "qhornlearn: %v\n", err)
		return 1
	}

	// Observability session: span tracing, metrics, profiling. The
	// -explain printer consumes the span stream, so it forces the
	// tracer on even without -trace.
	var extra []obs.SpanSink
	if *explain {
		extra = append(extra, explainSink{w: stdout})
	}
	session, err := obsFlags.Start(stdout, extra...)
	if err != nil {
		return fail(err)
	}
	defer session.Close()

	// Set up the proposition universe.
	var ps nested.Propositions
	var u boolean.Universe
	useData := *nVars == 0
	// Auto-widen: a -simulate query referencing variables beyond the
	// chocolate schema implies an abstract Boolean universe of the
	// query's size.
	if useData && !*propose && *propsPath == "" && *simulate != "" {
		if max := maxVarIndex(*simulate); max > len(nested.ChocolatePropositions().Props) {
			*nVars = max
			useData = false
		}
	}
	switch {
	case *propose:
		if *dataPath == "" {
			return fail(fmt.Errorf("-propose requires -data"))
		}
		raw, err := os.ReadFile(*dataPath)
		if err != nil {
			return fail(err)
		}
		d, err := nested.DecodeDataset(raw)
		if err != nil {
			return fail(err)
		}
		ps, err = nested.ProposePropositions(d, 8)
		if err != nil {
			return fail(err)
		}
		u = ps.Universe()
		useData = true
		fmt.Fprintf(stdout, "Proposed %d propositions from the dataset\n", len(ps.Props))
	case *propsPath != "":
		raw, err := os.ReadFile(*propsPath)
		if err != nil {
			return fail(err)
		}
		ps, err = nested.DecodePropositions(raw)
		if err != nil {
			return fail(err)
		}
		u = ps.Universe()
		useData = true
	case useData:
		ps = nested.ChocolatePropositions()
		u = ps.Universe()
	default:
		var err error
		u, err = boolean.NewUniverse(*nVars)
		if err != nil {
			return fail(err)
		}
		*boolMode = true
	}
	if useData {
		fmt.Fprintf(stdout, "Propositions over %s(%s(...)):\n", ps.Schema.Object, ps.Schema.Tuple)
		for i, p := range ps.Props {
			fmt.Fprintf(stdout, "  x%d: %s\n", i+1, p)
		}
		if inter := ps.Interferences(); len(inter) > 0 {
			fmt.Fprintln(stdout, "warning: interfering propositions (the Boolean abstraction assumes independence):")
			for _, pair := range inter {
				fmt.Fprintf(stdout, "  x%d and x%d\n", pair[0]+1, pair[1]+1)
			}
		}
	}

	// Optional dataset: questions prefer real tuples from it (§5),
	// served from a precomputed Boolean-class index.
	var store nested.Dataset
	var index *nested.Index
	haveStore := false
	if *dataPath != "" {
		raw, err := os.ReadFile(*dataPath)
		if err != nil {
			return fail(err)
		}
		store, err = nested.DecodeDataset(raw)
		if err != nil {
			return fail(err)
		}
		index, err = nested.NewIndex(ps, store)
		if err != nil {
			return fail(err)
		}
		haveStore = true
		profile := nested.Selectivity(ps, store)
		fmt.Fprintf(stdout, "Loaded %d objects (%d tuples, %d Boolean classes present of %d possible)\n",
			profile.TotalObjects, profile.TotalTuples, len(profile.Classes), 1<<uint(u.N()))
	}

	// Build the oracle: a simulated or interactive user.
	var user oracle.Oracle
	var oracleErr error
	if *simulate != "" {
		target, err := query.Parse(u, *simulate)
		if err != nil {
			return fail(fmt.Errorf("bad -simulate query: %w", err))
		}
		fmt.Fprintf(stdout, "Simulating a user whose intended query is: %s\n", target)
		user = oracle.Target(target)
	} else if *boolMode {
		user = oracle.Interactive(u, stdin, stdout)
	} else {
		inner := oracle.Interactive(u, stdin, stdout)
		user = oracle.Func(func(s boolean.Set) bool {
			var obj nested.Object
			var err error
			if haveStore {
				obj, err = index.Select("sample", s)
			} else {
				obj, err = ps.ConcretizeQuestion("sample", s)
			}
			if err != nil {
				oracleErr = err
				return false
			}
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, nested.FormatObject(ps.Schema, obj))
			return inner.Ask(s)
		})
	}
	// Learn through the run engine with full observability (spans,
	// metrics, -explain): one option list composes the algorithm, the
	// counter and the hooks.
	alg, err := engine.ParseAlgorithm(*class)
	if err != nil {
		return fail(err)
	}
	opts := append(engine.FromFlags(session), engine.WithAlgorithm(alg))
	var learned query.Query
	var stats engine.Stats
	learned, stats = learn.Run(u, user, opts...)
	if alg == engine.RolePreserving {
		fmt.Fprintf(stdout, "\nLearned (%d questions: %d head, %d universal, %d existential):\n  %s\n",
			stats.Total(), stats.HeadQuestions, stats.BodyQuestions, stats.ExistentialQuestions, learned)
	} else {
		fmt.Fprintf(stdout, "\nLearned (%d questions: %d head, %d body, %d existential):\n  %s\n",
			stats.Total(), stats.HeadQuestions, stats.BodyQuestions, stats.ExistentialQuestions, learned)
	}
	if oracleErr != nil {
		return fail(oracleErr)
	}

	if *printSQL && useData {
		sql, err := nested.SQL(learned, ps)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nAs SQL:\n%s\n", sql)
	}

	if *execute && useData {
		if !haveStore {
			rng := rand.New(rand.NewSource(*seed))
			store = nested.RandomChocolates(rng, 100, 6)
		}
		matches, err := nested.Execute(learned, ps, store)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nExecuting over %d objects: %d answers\n", len(store.Objects), len(matches))
		for i, o := range matches {
			if i == 3 {
				fmt.Fprintf(stdout, "  … and %d more\n", len(matches)-3)
				break
			}
			fmt.Fprint(stdout, nested.FormatObject(ps.Schema, o))
		}
	}
	if err := session.Close(); err != nil {
		return fail(err)
	}
	return 0
}

// explainSink prints every membership question as it is asked, with
// its phase and purpose, by consuming "question" events of the span
// stream.
type explainSink struct{ w io.Writer }

func (e explainSink) SpanStart(*obs.Span) {}
func (e explainSink) SpanEnd(*obs.Span)   {}
func (e explainSink) SpanEvent(sp *obs.Span, ev obs.Event) {
	if ev.Name != "question" {
		return
	}
	attrs := map[string]string{}
	for _, a := range ev.Attrs {
		attrs[a.Key] = a.Value
	}
	fmt.Fprintf(e.w, "  [%s] %s  %s -> %s\n",
		attrs["phase"], attrs["purpose"], attrs["question"], attrs["answer"])
}

// maxVarIndex returns the largest xN variable index mentioned in a
// query string, or 0.
var varIndexRE = regexp.MustCompile(`x(\d+)`)

func maxVarIndex(s string) int {
	max := 0
	for _, m := range varIndexRE.FindAllStringSubmatch(s, -1) {
		if n, err := strconv.Atoi(m[1]); err == nil && n > max {
			max = n
		}
	}
	return max
}
