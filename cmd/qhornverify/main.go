// Command qhornverify builds and optionally runs the verification
// set of a role-preserving qhorn query (§4 of the paper): the O(k)
// membership questions whose classifications uniquely determine the
// query's semantics.
//
// Usage:
//
//	qhornverify -n 6 -query "∀x1x4 → x5 ∃x2x3"          # print the set
//	qhornverify -n 6 -query "..." -ask                   # quiz the user
//	qhornverify -n 6 -query "..." -intended "..."        # simulate the user
//	qhornverify -n 6 -query "..." -intended "..." -revise
//
// With -ask or -intended, any disagreement between the user and the
// given query is reported with the question family that caught it; by
// Theorem 4.2 a semantically wrong query always disagrees somewhere.
// With -revise, an incorrect query is then corrected with further
// questions (§6) and the semantic edits are printed.
//
// The shared observability flags apply: -obs-addr serves /metrics,
// /spans, /progress, /healthz and /debug/pprof live during the run
// (docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	engine "qhorn/internal/run"
	"qhorn/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qhornverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nVars    = fs.Int("n", 0, "number of Boolean variables")
		qText    = fs.String("query", "", "the query to verify, in shorthand (e.g. \"Ax1x2 -> x3 Ex4\")")
		intended = fs.String("intended", "", "simulate a user with this intended query")
		ask      = fs.Bool("ask", false, "interactively ask the user each question")
		doRevise = fs.Bool("revise", false, "when incorrect, revise the query with further questions")
		first    = fs.Bool("first", false, "stop at the first disagreement instead of running the full set")
	)
	obsFlags := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *nVars <= 0 || *qText == "" {
		fmt.Fprintln(stderr, "usage: qhornverify -n <vars> -query <shorthand> [-intended <shorthand> | -ask] [-revise] [-first]")
		return 2
	}
	session, err := obsFlags.Start(stdout)
	if err != nil {
		return fail(stderr, err)
	}
	defer session.Close()
	u, err := boolean.NewUniverse(*nVars)
	if err != nil {
		return fail(stderr, err)
	}
	given, err := query.Parse(u, *qText)
	if err != nil {
		return fail(stderr, err)
	}
	vs, err := verify.Build(given)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "Query (normal form): %s\n", vs.Query)
	fmt.Fprintf(stdout, "Verification set (%d questions):\n", len(vs.Questions))
	for _, q := range vs.Questions {
		expect := "non-answer"
		if q.Expect {
			expect = "answer    "
		}
		fmt.Fprintf(stdout, "  [%s] %s  %-14s %s\n", q.Kind, expect, q.About, q.Set.Format(u))
	}

	var user oracle.Oracle
	switch {
	case *intended != "":
		iq, err := query.Parse(u, *intended)
		if err != nil {
			return fail(stderr, fmt.Errorf("bad -intended query: %w", err))
		}
		fmt.Fprintf(stdout, "\nSimulating a user whose intended query is: %s\n", iq)
		user = oracle.Target(iq)
	case *ask:
		user = oracle.Interactive(u, stdin, stdout)
	default:
		return 0
	}
	// The run engine assembles the counter and the hooks from the
	// flags.
	opts := engine.FromFlags(session)
	if *first {
		opts = append(opts, engine.WithFirstDisagreement())
	}
	res := vs.RunWith(user, opts...)
	if res.Correct {
		fmt.Fprintln(stdout, "VERIFIED: the user agrees with every question; the query matches her intent.")
		if err := session.Close(); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	fmt.Fprintf(stdout, "INCORRECT: %d disagreement(s):\n", len(res.Disagreements))
	for _, d := range res.Disagreements {
		fmt.Fprintf(stdout, "  [%s] %s: query expects %v, user says %v  %s\n",
			d.Question.Kind, d.Question.About, d.Question.Expect, d.Got, d.Question.Set.Format(u))
	}
	if *doRevise {
		rres, err := revise.Revise(given, user)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "\nREVISED with %d further questions (%d verification + %d repair):\n  %s\n",
			rres.Questions(), rres.VerificationQuestions, rres.RepairQuestions, rres.Revised)
		fmt.Fprintln(stdout, "changes:")
		fmt.Fprintln(stdout, revise.Explain(given, rres.Revised))
		return 0
	}
	return 1
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "qhornverify: %v\n", err)
	return 1
}
