// Command qhorndp is the DataPlay-style session driver: one tool that
// carries a quantified query through its whole lifecycle against a
// dataset — learn it from examples, review and amend the response
// history, verify it, revise it, execute it, and print it as SQL.
//
// Usage:
//
//	qhorndp -simulate "∀x1 ∃x2x3"                 # scripted demo session
//	qhorndp -simulate "..." -mistake 3            # user misanswers question 3, then amends
//	qhorndp -props p.json -data d.json -simulate "..."
//	qhorndp -given "∀x1 ∃x2" -simulate "∀x1 ∃x2x3"  # verify + revise a written query
//
// Without -simulate the questions are asked interactively on stdin.
//
// The shared observability flags apply: -obs-addr serves /metrics,
// /spans, /progress, /healthz and /debug/pprof live during the
// session (docs/OBSERVABILITY.md).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"qhorn/internal/dataplay"
	"qhorn/internal/nested"
	"qhorn/internal/obs"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	engine "qhorn/internal/run"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qhorndp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		simulate  = fs.String("simulate", "", "simulate the user with this intended query")
		given     = fs.String("given", "", "verify (and revise) this user-written query instead of learning")
		class     = fs.String("class", "qhorn1", "query class to learn: qhorn1 or rp")
		mistake   = fs.Int("mistake", 0, "simulated user misanswers this question number (0 = honest)")
		propsPath = fs.String("props", "", "JSON propositions file (default: the chocolate schema)")
		dataPath  = fs.String("data", "", "JSON dataset (default: 200 random boxes)")
		seed      = fs.Int64("seed", 1, "seed for the random store")
	)
	obsFlags := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "qhorndp: %v\n", err)
		return 1
	}
	w := stdout

	session, err := obsFlags.Start(stdout)
	if err != nil {
		return fail(err)
	}
	defer session.Close()
	root := session.Tracer.StartSpan("dataplay-session")
	defer root.End()

	ps := nested.ChocolatePropositions()
	if *propsPath != "" {
		raw, err := os.ReadFile(*propsPath)
		if err != nil {
			return fail(err)
		}
		ps, err = nested.DecodePropositions(raw)
		if err != nil {
			return fail(err)
		}
	}
	var store nested.Dataset
	if *dataPath != "" {
		raw, err := os.ReadFile(*dataPath)
		if err != nil {
			return fail(err)
		}
		var derr error
		store, derr = nested.DecodeDataset(raw)
		if derr != nil {
			return fail(derr)
		}
	} else {
		store = nested.RandomChocolates(rand.New(rand.NewSource(*seed)), 200, 5)
	}

	sys, err := dataplay.New(ps, store)
	if err != nil {
		return fail(err)
	}
	u := sys.Universe()
	fmt.Fprintf(w, "DataPlay session over %s(%s(...)), %d objects\n", ps.Schema.Object, ps.Schema.Tuple, len(store.Objects))
	for i, p := range ps.Props {
		fmt.Fprintf(w, "  x%d: %s\n", i+1, p)
	}

	// The user.
	var honest dataplay.User
	var intended query.Query
	if *simulate != "" {
		var perr error
		intended, perr = query.Parse(u, *simulate)
		if perr != nil {
			return fail(perr)
		}
		fmt.Fprintln(w, "\nsimulated user intent:", intended)
		honest = dataplay.SimulatedUser(ps, intended)
	} else {
		in := bufio.NewReader(stdin)
		honest = dataplay.UserFunc(func(o nested.Object) bool {
			fmt.Fprintln(w)
			fmt.Fprint(w, nested.FormatObject(ps.Schema, o))
			for {
				fmt.Fprint(w, "answer to your query? [y/n] ")
				line, err := in.ReadString('\n')
				switch strings.ToLower(strings.TrimSpace(line)) {
				case "y", "yes":
					return true
				case "n", "no":
					return false
				}
				if err != nil {
					return false
				}
			}
		})
	}
	shown := 0
	user := dataplay.UserFunc(func(o nested.Object) bool {
		shown++
		v := honest.Classify(o)
		if shown == *mistake {
			fmt.Fprintf(w, "  (user misanswers question %d)\n", shown)
			return !v
		}
		return v
	})

	// Verify/revise mode.
	if *given != "" {
		gq, err := query.Parse(u, *given)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(w, "\nverifying written query:", gq)
		sp := root.StartChild("verify", obs.A("query", gq.String()))
		res, err := sys.VerifyQuery(gq, user)
		sp.End()
		if err != nil {
			return fail(err)
		}
		if res.Correct {
			fmt.Fprintf(w, "VERIFIED with %d questions\n", res.QuestionsAsked)
			return 0
		}
		fmt.Fprintf(w, "INCORRECT (%d disagreements); revising…\n", len(res.Disagreements))
		sp = root.StartChild("revise")
		rres, err := sys.ReviseQuery(gq, user)
		sp.End()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(w, "revised query:", rres.Revised)
		fmt.Fprintln(w, "changes:")
		fmt.Fprintln(w, revise.Explain(gq, rres.Revised))
		return report(w, stderr, sys, rres.Revised, ps)
	}

	// Learning mode. The run engine composes every flag-driven option
	// (engine.FromFlags).
	opts := engine.FromFlags(session)
	cl, err := engine.ParseAlgorithm(*class)
	if err != nil {
		return fail(err)
	}
	sp := root.StartChild("learn", obs.A("class", *class))
	learned, err := sys.Learn(cl, user, opts...)
	sp.End()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "\nlearned after %d questions: %s\n", sys.Questions, learned)

	// Confirm with the O(k) verification set. A failure means some
	// recorded response contradicts the user's intent — the §5 flow:
	// review the history, amend, re-learn.
	sp = root.StartChild("verify", obs.A("query", learned.String()))
	vres, err := sys.VerifyQuery(learned, user)
	sp.End()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "verification: correct=%v (%d questions)\n", vres.Correct, vres.QuestionsAsked)
	if !vres.Correct && *simulate != "" {
		fmt.Fprintln(w, "reviewing interaction history against the user's intent…")
		sp = root.StartChild("amend-review")
		fixed, err := sys.AmendReview(honest)
		sp.End()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "  amended %d response(s)\n", fixed)
		sp = root.StartChild("learn", obs.A("class", *class), obs.A("after", "amendment"))
		learned, err = sys.Learn(cl, dataplay.UserFunc(honest.Classify), opts...)
		sp.End()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(w, "re-learned:", learned)
		vres, err = sys.VerifyQuery(learned, dataplay.UserFunc(honest.Classify))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "verification after amendment: correct=%v\n", vres.Correct)
	}
	if *simulate != "" {
		fmt.Fprintln(w, "equivalent to intent:", learned.Equivalent(intended))
	}
	return report(w, stderr, sys, learned, ps)
}

func report(w, stderr io.Writer, sys *dataplay.System, q query.Query, ps nested.Propositions) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "qhorndp: %v\n", err)
		return 1
	}
	matches, err := sys.Execute(q)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "\nexecution: %d answers\n", len(matches))
	for i, o := range matches {
		if i == 2 {
			fmt.Fprintf(w, "  … and %d more\n", len(matches)-2)
			break
		}
		fmt.Fprint(w, nested.FormatObject(ps.Schema, o))
	}
	sql, err := sys.SQL(q)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "\nas SQL:\n%s\n", sql)
	return 0
}
