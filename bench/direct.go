package main

import (
	"math/rand"
	"sort"
	"time"

	"qhorn/internal/difffuzz"
	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/session"
)

// target is one hidden query of a workload's pool with its direct
// reference learn.
type target struct {
	q     query.Query
	given string        // q.String(), the given query of verify sessions
	user  oracle.Oracle // the simulated user, compiled once
	want  string        // the query a direct learn.Run learns
	live  int           // the questions that learn asks
}

// genTargets draws count hidden queries from the seed with
// difffuzz.GenCase and learns each once directly, as the reference the
// ops are checked against. Universe sizes cycle through
// minVars..maxVars, so every seed draws the same mix of sizes and only
// the query shapes vary; that keeps seeds comparable.
func genTargets(seed int64, class difffuzz.Class, alg run.Algorithm, count, minVars, maxVars int) []target {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]target, count)
	for i := range ts {
		n := minVars + i%(maxVars-minVars+1)
		q := difffuzz.GenCase(rng, class, n, n).Hidden
		user := oracle.Target(q)
		hist := session.New(user)
		learned, _ := learn.Run(q.U, hist, run.WithAlgorithm(alg), run.WithBatch())
		ts[i] = target{q: q, given: q.String(), user: user, want: learned.String(), live: hist.LiveQuestions}
	}
	return ts
}

// balance gives each target to one worker, heaviest first, to the
// worker with the least estimated cost so far; a worker runs every op
// of its targets in op order. Keeping a target on one worker keeps its
// sessions sequential, which the warm sessions' shared memo state needs
// to stay deterministic.
func balance(opTarget []int, cost []float64, workers int) [][]int {
	order := make([]int, len(cost))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	owner := make([]int, len(cost))
	load := make([]float64, workers)
	for _, t := range order {
		w := 0
		for k := range load {
			if load[k] < load[w] {
				w = k
			}
		}
		owner[t] = w
		load[w] += cost[t]
	}
	assign := make([][]int, workers)
	for i, t := range opTarget {
		assign[owner[t]] = append(assign[owner[t]], i)
	}
	return assign
}

// directBench is direct-rp: role-preserving learns through learn.Run
// over an interaction-history session, in process.
type directBench struct {
	targets  []target
	opTarget []int
	assign   [][]int
}

func newDirectBench(cfg config) (bench, error) {
	// Every learn has a target of its own, on 16 to 28 variables, so a
	// round of 2000 takes about 3 s on one worker (README.md).
	ops := 2000
	if cfg.small {
		ops = 4
	}
	b := &directBench{
		targets:  genTargets(cfg.seed, difffuzz.ClassRP, run.RolePreserving, ops, 16, 28),
		opTarget: make([]int, ops),
	}
	cost := make([]float64, ops)
	for i := range b.opTarget {
		b.opTarget[i] = i
		cost[i] = float64(b.targets[i].live)
	}
	b.assign = balance(b.opTarget, cost, cfg.workers)
	return b, nil
}

func (b *directBench) assignment() [][]int { return b.assign }
func (b *directBench) close()              {}

func (b *directBench) op(rc *roundCtx, w, i int, rec *recorder) {
	t := &b.targets[b.opTarget[i]]
	root := rc.root(i, obs.Af("target", "%d", b.opTarget[i]))
	spans := &spanStack{cur: root}
	// The clock is allocated before the op starts, so the benchmark's own
	// allocation stays out of the user's measured wait.
	user := &userClock{inner: t.user, rec: rec, spans: spans}
	start := time.Now()
	user.last = start
	hist := session.New(user)
	outer := &timedOracle{inner: hist, name: "session.ask", spans: spans}
	var o oracle.Oracle = hist
	if rc.traced {
		o = outer
	}
	prev := spans.push("learn.Run")
	runStart := time.Now()
	q, _ := learn.Run(t.q.U, o, run.WithAlgorithm(run.RolePreserving), run.WithBatch(), run.WithCounter())
	runWall := time.Since(runStart)
	spans.pop(prev)
	wall := time.Since(start)
	root.End()
	if got := q.String(); got != t.want || hist.LiveQuestions != t.live {
		rec.fail("direct-rp op %d: learned %s in %d questions, reference %s in %d", i, got, hist.LiveQuestions, t.want, t.live)
		return
	}
	rec.done(wall)
	rec.add("questions", float64(user.questions))
	rec.add("round_trips", float64(user.calls))
	rec.add("batches", float64(user.calls))
	if rc.traced {
		rec.layer("learn", runWall-outer.busy)
		rec.layer("session", outer.busy-user.busy)
		rec.layer("query.eval", user.busy)
		rec.layer("residual", wall-runWall)
		rec.layer("wall", wall)
		rec.addDur("eval_ns", user.busy)
		rec.addDur("user_ns", user.busy)
		rec.add("engine_questions", float64(user.questions))
		rec.add("learn_questions", float64(user.questions))
	}
}
