package exp

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E24",
		Name:  "obs",
		Paper: "engineering (docs/OBSERVABILITY.md)",
		Claim: "the always-on observability plane (latency histograms + span flight recorder) costs under 5% of session wall time",
		Run:   runObs,
	})
}

// obsOverheadLimit is the in-run acceptance gate: the median session
// overhead of the full observability plane must stay below this
// fraction of the bare run.
const obsOverheadLimit = 0.05

// runObs measures what the live observability plane costs: the same
// learning session runs bare and fully instrumented (question counter,
// ask-latency and phase histograms, span stream into a flight
// recorder — exactly the plane -obs-addr turns on), and the overhead
// is the relative wall-time difference. The session's user answers
// with a fixed think time, conservative against any real user (§2.1.2
// measures humans in seconds); the second table prices the individual
// instruments in ns/op so the overhead can be decomposed. The run
// always panics if the instrumented session asks different questions
// than the bare one. Outside tests it also panics if the median
// overhead breaches obsOverheadLimit, so `qhornexp -exp obs -json`
// (BENCH_obs.json) is self-gating; `go test ./...` skips that
// wall-clock gate because it flakes under parallel package load.
func runObs(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("obs")
	return []*stats.Table{obsSessionTable(e, cfg), obsMicroTable(e, cfg)}
}

// obsThinkTime is the simulated user's per-answer think time in the
// session-overhead table. 100µs is three to four orders of magnitude
// faster than a human answering membership questions, so the measured
// overhead is a hard upper bound on what an interactive session pays.
const obsThinkTime = 100 * time.Microsecond

// obsSessionTable times full qhorn1 learning sessions bare vs
// instrumented and gates the median overhead.
func obsSessionTable(e Experiment, cfg Config) *stats.Table {
	t := stats.NewTable(header(e)+" — session overhead (simulated user)",
		"n", "questions", "bare ms", "instrumented ms", "overhead %", "spans", "ask samples")

	sweep := []int{12, 16}
	reps := 3
	if cfg.Quick {
		sweep = []int{12}
		reps = 2
	}
	trials := cfg.Trials
	if trials > 8 {
		trials = 8 // each trial runs reps×2 latency-bound sessions
	}
	for _, n := range sweep {
		rng := rand.New(rand.NewSource(cfg.Seed))
		u := boolean.MustUniverse(n)
		var questions, bareMS, instMS []float64
		var spans uint64
		var askSamples uint64
		for trial := 0; trial < trials; trial++ {
			target := query.GenQhorn1(rng, n)
			user := func() oracle.Oracle {
				inner := oracle.Target(target)
				return oracle.Func(func(s boolean.Set) bool {
					time.Sleep(obsThinkTime)
					return inner.Ask(s)
				})
			}

			// Min over reps suppresses scheduler noise; the arms
			// alternate so neither systematically benefits from cache
			// warmth.
			var bareBest, instBest float64
			var asked int
			for r := 0; r < reps; r++ {
				start := time.Now()
				_, st := learn.Run(u, user(), run.WithAlgorithm(run.Qhorn1))
				ms := float64(time.Since(start).Microseconds()) / 1000
				if r == 0 || ms < bareBest {
					bareBest = ms
				}
				asked = st.Total()

				reg := obs.NewRegistry()
				flight := obs.NewFlightRecorder(0)
				tracer := obs.NewTracer(flight)
				start = time.Now()
				_, instSt := learn.Run(u, user(),
					run.WithAlgorithm(run.Qhorn1),
					run.WithInstrumentation(run.Instrumentation{Spans: tracer, Metrics: reg}),
					run.WithCounter())
				ms = float64(time.Since(start).Microseconds()) / 1000
				if instSt != st {
					panic("exp: instrumented session asked different questions than the bare one")
				}
				if r == 0 || ms < instBest {
					instBest = ms
				}
				if r == reps-1 {
					_, completed, dropped := flight.Snapshot()
					spans += dropped + uint64(len(completed))
					askSamples += reg.Histogram(obs.MetricOracleAskSeconds, obs.LatencyBuckets).Count()
				}
			}
			questions = append(questions, float64(asked))
			bareMS = append(bareMS, bareBest)
			instMS = append(instMS, instBest)
		}
		bm := median(bareMS)
		im := median(instMS)
		overhead := (im - bm) / bm
		t.AddRow(n, stats.Summarize(questions).Mean, bm, im, overhead*100, spans, askSamples)
		if !testing.Testing() && overhead > obsOverheadLimit {
			panic("exp: observability plane overhead breached the 5% gate")
		}
	}
	t.AddNote("simulated user think time per answer: %v (orders of magnitude below human latency, so the %% is an upper bound); instrumented arm = question counter + ask-latency and phase histograms + span stream into a flight recorder, the exact plane -obs-addr enables; medians over %d trials, min of %d reps each; gate: overhead < %.0f%%", obsThinkTime, trials, reps, obsOverheadLimit*100)
	return t
}

// obsMicroTable prices the individual instruments: the cost one
// membership question pays for each piece of the plane, with no user
// latency to hide behind.
func obsMicroTable(e Experiment, cfg Config) *stats.Table {
	t := stats.NewTable(header(e)+" — instrument micro-costs",
		"operation", "ops", "ns/op")

	ops := 200000
	if cfg.Quick {
		ops = 50000
	}
	reg := obs.NewRegistry()
	counter := reg.Counter(obs.MetricQuestions)
	hist := reg.Histogram(obs.MetricOracleAskSeconds, obs.LatencyBuckets)
	flight := obs.NewFlightRecorder(0)
	tracer := obs.NewTracer(flight)
	root := tracer.StartSpan("micro")

	bench := func(name string, f func()) {
		start := time.Now()
		for i := 0; i < ops; i++ {
			f()
		}
		t.AddRow(name, ops, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	bench("counter Inc", func() { counter.Inc() })
	bench("histogram Observe", func() { hist.Observe(42e-6) })
	bench("timed histogram Observe", func() {
		start := time.Now()
		hist.Observe(time.Since(start).Seconds())
	})
	bench("span event (flight recorder)", func() {
		root.Event("question", obs.A("phase", "heads"), obs.A("answer", "answer"))
	})
	bench("span start+end (flight recorder)", func() {
		root.StartChild("phase").End()
	})
	root.End()

	t.AddNote("single-goroutine costs of each instrument on this machine; a session pays roughly one counter + one timed histogram + one span event per question, and one span pair per phase")
	return t
}

// median returns the middle value of xs (mean of the middle two for
// even lengths); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
