package qhorn_test

// The question-stream ledger: one line per (class, n, seed, mode) with
// the number of questions asked and a SHA-256 of the ordered Set.Key
// stream, plus the paper's anchors (the Fig 5 trace, the §4.2 worked
// example and the exhaustive n=2 verification sets of Fig 7). The
// ledger pins the asked stream across commits: any change to which
// questions the algorithms ask, or in which order, fails the test.
//
// Regenerate deliberately with
//
//	go test -run TestQuestionStreamLedger -update .
//
// and name the moved cases and the reason in the change description.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	"qhorn/internal/run"
	"qhorn/internal/serve"
	"qhorn/internal/session"
	"qhorn/internal/verify"
)

var updateStreams = flag.Bool("update", false, "rewrite testdata/streams.golden from the current code")

const streamsGolden = "testdata/streams.golden"

// streamHash is the running digest of one ordered question stream.
type streamHash struct {
	n int
	h []byte // Set.Key stream, newline-terminated
}

func (s *streamHash) add(q boolean.Set) {
	s.n++
	s.h = append(s.h, q.Key()...)
	s.h = append(s.h, '\n')
}

func (s *streamHash) line(name string) string {
	sum := sha256.Sum256(s.h)
	return fmt.Sprintf("%s %d %s", name, s.n, hex.EncodeToString(sum[:]))
}

// recordedLine is the ledger line of a recorded transcript.
func recordedLine(name string, rec *oracle.Transcript) string {
	var s streamHash
	for _, e := range rec.Copy() {
		s.add(e.Question)
	}
	return s.line(name)
}

// ledgerTarget draws the hidden query of one case. The role-preserving
// shape is E26's one-clause-drift generator.
func ledgerTarget(rng *rand.Rand, alg run.Algorithm, n int) query.Query {
	if alg == run.RolePreserving {
		return query.GenRolePreserving(rng, n, query.RPOptions{
			Heads: 2, BodiesPerHead: 1, MaxBodySize: 3, Conjs: 3, MaxConjSize: 5})
	}
	return query.GenQhorn1(rng, n)
}

// ledgerDrift returns an inequivalent one-clause drift of q.
func ledgerDrift(t *testing.T, rng *rand.Rand, q query.Query) query.Query {
	for i := 0; i < 100; i++ {
		if d := query.Mutate(rng, q, 1); !d.Equivalent(q) {
			return d
		}
	}
	t.Fatalf("no inequivalent one-clause drift of %s", q)
	return q
}

// ledgerLines computes the ledger from the current code.
func ledgerLines(t *testing.T) []string {
	srv := serve.New(serve.Config{MemoCapacity: -1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := serve.NewClient(srv.URL())

	var lines []string
	for _, alg := range []run.Algorithm{run.Qhorn1, run.RolePreserving} {
		for _, n := range []int{8, 12, 16} {
			for seed := int64(1); seed <= 2; seed++ {
				name := func(mode string) string { return fmt.Sprintf("%s/n=%d/seed=%d/%s", alg, n, seed, mode) }
				rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
				target := ledgerTarget(rng, alg, n)

				rec := oracle.Record(oracle.Target(target))
				prior, _ := learn.Run(target.U, rec, run.WithAlgorithm(alg))
				lines = append(lines, recordedLine(name("serial"), rec))

				// Batched: the learner-facing stream in the deterministic
				// order the steps report it.
				var batched streamHash
				learn.Run(target.U, oracle.Target(target), run.WithAlgorithm(alg), run.WithBatch(),
					run.WithSteps(func(s run.Step) { batched.add(s.Question) }))
				lines = append(lines, batched.line(name("batched")))

				lines = append(lines, servedLine(t, client, target, alg, name("served")))

				if alg != run.RolePreserving {
					continue
				}
				drifted := ledgerDrift(t, rng, target)

				// Verify: the full verification set of the drifted query
				// against the original user.
				rec = oracle.Record(oracle.Target(target))
				if _, err := verify.Run(drifted, rec); err != nil {
					t.Fatal(err)
				}
				lines = append(lines, recordedLine(name("verify"), rec))

				// Revise cold: the drifted user sees exactly what leaves
				// the revision's own dedup layer.
				rec = oracle.Record(oracle.Target(drifted))
				if _, err := revise.Revise(prior, rec); err != nil {
					t.Fatal(err)
				}
				lines = append(lines, recordedLine(name("revise-cold"), rec))

				// Revise: E26's replay — the prior session's history is
				// amended to the drifted target and the revision asks the
				// user only what the history does not hold.
				hist := session.New(oracle.Target(target))
				learn.Run(target.U, hist, run.WithAlgorithm(alg))
				if err := hist.AmendAll(hist.InconsistentWith(oracle.Target(drifted).Ask)); err != nil {
					t.Fatal(err)
				}
				enc, err := hist.EncodeJSON(target.U)
				if err != nil {
					t.Fatal(err)
				}
				rec = oracle.Record(oracle.Target(drifted))
				warm, _, err := session.DecodeJSON(enc, rec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := revise.Revise(prior, warm)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Revised.Equivalent(drifted) {
					t.Fatalf("%s: revised to %s, want %s", name("revise"), res.Revised, drifted)
				}
				lines = append(lines, recordedLine(name("revise"), rec))
			}
		}
	}

	// Fig 5 (E19): the role-preserving trace of the §3.2 example.
	u6 := boolean.MustUniverse(6)
	fig5 := query.MustParse(u6, "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	rec := oracle.Record(oracle.Target(fig5))
	learn.Run(u6, rec, run.WithAlgorithm(run.RolePreserving))
	lines = append(lines, recordedLine("anchor/fig5/serial", rec))

	// §4.2 (E10): the worked example's verification set.
	var worked streamHash
	vs, err := verify.Build(fig5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range vs.Questions {
		worked.add(q.Set)
	}
	lines = append(lines, worked.line("anchor/worked-example/verify"))

	// Fig 7 (E8): the verification sets of every role-preserving query
	// on two variables, in AllQueries order.
	var fig7 streamHash
	for _, q := range query.AllQueries(boolean.MustUniverse(2)) {
		vs, err := verify.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, vq := range vs.Questions {
			fig7.add(vq.Set)
		}
	}
	lines = append(lines, fig7.line("anchor/fig7-n2/verify"))
	return lines
}

// servedLine learns target through an in-process qhornd session driven
// by an honest answerer and hashes the session's /history.
func servedLine(t *testing.T, c *serve.Client, target query.Query, alg run.Algorithm, name string) string {
	t.Helper()
	info, err := c.Create(serve.CreateRequest{Variables: target.N(), Algorithm: alg.String(), Budget: -1})
	if err != nil {
		t.Fatalf("%s: create: %v", name, err)
	}
	final, err := c.Drive(info.ID, serve.AnswererFor(target.U, oracle.Target(target)), serve.DriveOptions{})
	if err != nil || final.State != serve.StateDone {
		t.Fatalf("%s: drive ended %q (%v)", name, final.State, err)
	}
	hist, err := c.History(info.ID)
	if err != nil {
		t.Fatalf("%s: history: %v", name, err)
	}
	var s streamHash
	for _, e := range hist {
		tuples := make([]boolean.Tuple, len(e.Tuples))
		for i, str := range e.Tuples {
			if tuples[i], err = target.U.Parse(str); err != nil {
				t.Fatalf("%s: history tuple %q: %v", name, str, err)
			}
		}
		s.add(boolean.NewSet(tuples...))
	}
	if err := c.Delete(info.ID); err != nil {
		t.Fatalf("%s: delete: %v", name, err)
	}
	return s.line(name)
}

// TestQuestionStreamLedger fails on any difference between the asked
// question streams and testdata/streams.golden.
func TestQuestionStreamLedger(t *testing.T) {
	got := "# case questions sha256(ordered Set.Key stream)\n" + strings.Join(ledgerLines(t), "\n") + "\n"
	if *updateStreams {
		if err := os.WriteFile(streamsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("%s line %d:\n  golden %s\n  now    %s", streamsGolden, i+1, w, g)
		}
	}
}
