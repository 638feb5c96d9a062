package learn_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/difffuzz"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/session"
)

// runSerialAndBatched learns target with both the serial and the
// batched learner and compares the results and the two counters. The
// batched learner asks a plain counting oracle, so its batches go
// through oracle.AskAll's serial fallback.
func runSerialAndBatched(t *testing.T, target query.Query,
	serial func(o oracle.Oracle) (query.Query, int),
	batched func(o oracle.Oracle) (query.Query, int)) {
	t.Helper()
	sc := oracle.Count(oracle.Target(target), nil)
	sq, st := serial(sc)
	bc := oracle.Count(oracle.Target(target), nil)
	bq, bt := batched(bc)
	if !sq.Equivalent(target) {
		t.Errorf("serial learner got %s, not equivalent to %s", sq, target)
	}
	if !bq.Equivalent(sq) {
		t.Errorf("batched learner got %s, serial got %s (target %s)", bq, sq, target)
	}
	if st != bt {
		t.Errorf("per-phase stats diverge for %s: serial total %d, batched total %d", target, st, bt)
	}
	if sc.Questions != bc.Questions || sc.Tuples != bc.Tuples || sc.MaxTuples != bc.MaxTuples {
		t.Errorf("oracle accounting diverges for %s: serial (%d, %d, %d), batched (%d, %d, %d)",
			target, sc.Questions, sc.Tuples, sc.MaxTuples, bc.Questions, bc.Tuples, bc.MaxTuples)
	}
}

// TestQhorn1BatchMatchesSerial pins the engine's determinism contract
// for qhorn-1 (docs/ENGINE.md): on seeded random targets, the batched
// learner returns an equivalent query with identical per-phase
// question counts and identical oracle-side question/tuple accounting.
func TestQhorn1BatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 60; i++ {
		c := difffuzz.GenCase(rng, difffuzz.ClassQhorn1, 2, 8)
		var sst, pst run.Stats
		runSerialAndBatched(t, c.Hidden,
			func(o oracle.Oracle) (query.Query, int) {
				q, st := learn.Run(c.Hidden.U, o)
				sst = run.Stats(st)
				return q, st.Total()
			},
			func(o oracle.Oracle) (query.Query, int) {
				q, st := learn.Run(c.Hidden.U, o, run.WithBatch())
				pst = st
				return q, st.Total()
			})
		if sst != pst {
			t.Errorf("%s: serial stats %+v, batched stats %+v", c.Hidden, sst, pst)
		}
	}
}

// TestRolePreservingBatchMatchesSerial is the same contract for the
// role-preserving learner, whose per-head lattice searches are stepped
// in lockstep rounds.
func TestRolePreservingBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 60; i++ {
		c := difffuzz.GenCase(rng, difffuzz.ClassRP, 2, 8)
		var sst, pst run.Stats
		runSerialAndBatched(t, c.Hidden,
			func(o oracle.Oracle) (query.Query, int) {
				q, st := learn.Run(c.Hidden.U, o, run.WithAlgorithm(run.RolePreserving))
				sst = st
				return q, st.Total()
			},
			func(o oracle.Oracle) (query.Query, int) {
				q, st := learn.Run(c.Hidden.U, o, run.WithAlgorithm(run.RolePreserving), run.WithBatch())
				pst = st
				return q, st.Total()
			})
		if sst != pst {
			t.Errorf("%s: serial stats %+v, batched stats %+v", c.Hidden, sst, pst)
		}
	}
}

// TestBatchMatchesSerialOnCorpus replays every persisted difffuzz
// repro — each one a past or near-miss bug — through both learners.
// The corpus cases are exactly where serial/batched divergence would
// hide.
func TestBatchMatchesSerialOnCorpus(t *testing.T) {
	cases, err := difffuzz.LoadCorpus("../difffuzz/testdata/corpus")
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("corpus is empty")
	}
	for _, c := range cases {
		switch c.Class {
		case difffuzz.ClassQhorn1:
			runSerialAndBatched(t, c.Hidden,
				func(o oracle.Oracle) (query.Query, int) {
					q, st := learn.Run(c.Hidden.U, o)
					return q, st.Total()
				},
				func(o oracle.Oracle) (query.Query, int) {
					q, st := learn.Run(c.Hidden.U, o, run.WithBatch())
					return q, st.Total()
				})
		case difffuzz.ClassRP:
			runSerialAndBatched(t, c.Hidden,
				func(o oracle.Oracle) (query.Query, int) {
					q, st := learn.Run(c.Hidden.U, o, run.WithAlgorithm(run.RolePreserving))
					return q, st.Total()
				},
				func(o oracle.Oracle) (query.Query, int) {
					q, st := learn.Run(c.Hidden.U, o, run.WithAlgorithm(run.RolePreserving), run.WithBatch())
					return q, st.Total()
				})
		}
	}
}

// TestObservedBatchMatchesSerial pins that observed batched runs
// report instrumentation question counts identical to their serial
// observed counterparts.
func TestObservedBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	countSteps := func(learnWith func(ins learn.Instrumentation)) map[string]int {
		counts := map[string]int{}
		learnWith(learn.Instrumentation{Steps: func(s learn.Step) { counts[s.Phase]++ }})
		return counts
	}
	for i := 0; i < 10; i++ {
		c := difffuzz.GenCase(rng, difffuzz.ClassQhorn1, 2, 6)
		serial := countSteps(func(ins learn.Instrumentation) {
			learn.Run(c.Hidden.U, oracle.Target(c.Hidden), run.WithInstrumentation(ins))
		})
		batched := countSteps(func(ins learn.Instrumentation) {
			learn.Run(c.Hidden.U, oracle.Target(c.Hidden), run.WithBatch(), run.WithInstrumentation(ins))
		})
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("%s: serial observed %v question events by phase, batched %v", c.Hidden, serial, batched)
		}
	}
	for i := 0; i < 10; i++ {
		c := difffuzz.GenCase(rng, difffuzz.ClassRP, 2, 6)
		serial := countSteps(func(ins learn.Instrumentation) {
			learn.Run(c.Hidden.U, oracle.Target(c.Hidden), run.WithAlgorithm(run.RolePreserving), run.WithInstrumentation(ins))
		})
		batched := countSteps(func(ins learn.Instrumentation) {
			learn.Run(c.Hidden.U, oracle.Target(c.Hidden), run.WithAlgorithm(run.RolePreserving), run.WithBatch(), run.WithInstrumentation(ins))
		})
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("%s: serial observed %v question events by phase, batched %v", c.Hidden, serial, batched)
		}
	}
}

// TestRolePreservingBatchedBudgetPanics pins the batched body search's
// failure contract: when the oracle's budget runs out mid-search, the
// ErrBudget panic reaches the learn.Run caller and exactly the
// budget's questions reach the user.
func TestRolePreservingBatchedBudgetPanics(t *testing.T) {
	u := boolean.MustUniverse(8)
	target := query.MustParse(u, "∀x1x2 → x6 ∀x3 → x7 ∀x4 → x8 ∃x1x2x3x4x5")
	// n head questions, then the bodyless-check round (one question
	// per head) and one question of the top-root round.
	limit := u.N() + 3 + 1
	inner := oracle.Count(oracle.Target(target), nil)
	budget := oracle.WithBudget(inner, limit, nil)
	recovered := func() (r interface{}) {
		defer func() { r = recover() }()
		learn.Run(u, budget, run.WithAlgorithm(run.RolePreserving), run.WithBatch())
		return nil
	}()
	if _, ok := recovered.(oracle.ErrBudget); !ok {
		t.Fatalf("recovered %v, want oracle.ErrBudget", recovered)
	}
	if inner.Questions != limit {
		t.Errorf("user answered %d questions, want the budget %d", inner.Questions, limit)
	}
}

// TestRolePreservingSilentRunAllocs bounds the allocations of a
// role-preserving learn with no Steps hook and no spans: nobody reads
// the question purposes, so none may be formatted, and the learner's
// per-question scratch is reused. The last case is the in-process
// session stack of the direct-rp benchmark workload: a fresh history
// per learn, batched, counted.
func TestRolePreservingSilentRunAllocs(t *testing.T) {
	u := boolean.MustUniverse(12)
	target := query.MustParse(u, "∀x1x2 → x9 ∀x3 → x9 ∀x4x5 → x10 ∀x6 → x11 ∃x1x2x3x7 ∃x4x5x6x8 ∃x7x8x12")
	o := oracle.Target(target)
	plain := func() oracle.Oracle { return o }
	fresh := func() oracle.Oracle { return session.New(o) }
	// 166 questions take about 258 allocations serially, 286 batched
	// and 328 through the session stack; each bound is about 10% above
	// that. Formatting every purpose adds at least two per question.
	for _, c := range []struct {
		name   string
		oracle func() oracle.Oracle
		opts   []run.Option
		bound  float64
	}{
		{"serial", plain, nil, 284},
		{"batched", plain, []run.Option{run.WithBatch()}, 315},
		{"session stack", fresh, []run.Option{run.WithBatch(), run.WithCounter()}, 361},
	} {
		opts := append([]run.Option{run.WithAlgorithm(run.RolePreserving)}, c.opts...)
		q, st := learn.Run(u, c.oracle(), opts...)
		if !q.Equivalent(target) {
			t.Fatalf("%s: learned %s, want %s", c.name, q, target)
		}
		allocs := testing.AllocsPerRun(10, func() { learn.Run(u, c.oracle(), opts...) })
		if allocs > c.bound {
			t.Errorf("%s: %.0f allocations for %d questions, want at most %.0f", c.name, allocs, st.Total(), c.bound)
		}
		t.Logf("%s: %.0f allocations for %d questions", c.name, allocs, st.Total())
		hooked := testing.AllocsPerRun(10, func() {
			learn.Run(u, c.oracle(), append(opts, run.WithSteps(func(run.Step) {}))...)
		})
		if allocs+float64(st.Total()) > hooked {
			t.Errorf("%s: %.0f allocations silent, %.0f with a Steps hook: purposes are formatted with nobody reading them", c.name, allocs, hooked)
		}
	}
}

// TestRolePreservingBatchedStepsMatchSerial pins that a Steps hook sees
// the serial run's annotated questions in batch mode: the head and
// existential steps in the serial order, and each head's body-search
// steps in that head's serial order (batch mode interleaves heads).
func TestRolePreservingBatchedStepsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 40; i++ {
		c := difffuzz.GenCase(rng, difffuzz.ClassRP, 2, 9)
		steps := func(opts ...run.Option) map[string][]string {
			byStream := map[string][]string{}
			hook := func(s run.Step) {
				stream := s.Phase
				if s.Phase == "bodies" {
					stream, _, _ = strings.Cut(s.Purpose, " lie within")
				}
				byStream[stream] = append(byStream[stream], fmt.Sprintf("%s %s %v", s.Purpose, s.Question.Key(), s.Answer))
			}
			opts = append(opts, run.WithAlgorithm(run.RolePreserving), run.WithSteps(hook))
			learn.Run(c.Hidden.U, oracle.Target(c.Hidden), opts...)
			return byStream
		}
		serial := steps()
		batched := steps(run.WithBatch())
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("%s: batched steps differ from the serial run's\nserial:  %v\nbatched: %v", c.Hidden, serial, batched)
		}
	}
}
