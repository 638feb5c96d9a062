package learn

import (
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
)

// instr is the per-run instrumentation state embedded in each
// learner: the current span, and the phase/purpose annotation of the
// next question. Its zero value is silent, so the exported phase
// helpers (ClassifyHeads, LearnBodies, …) need no special casing.
type instr struct {
	u   boolean.Universe
	ins Instrumentation
	cur *obs.Span
	// phase and purpose annotate the next question (set by note).
	phase, purpose string
	// byPhase, phaseTime, latticeVisited and latticePruned are the
	// run's metric handles, resolved from ins.Metrics on first use so
	// the hot path skips the registry's label formatting and lock.
	byPhase                       map[string]*obs.Counter
	phaseTime                     map[string]*obs.Histogram
	latticeVisited, latticePruned *obs.Counter
}

// on reports whether anyone reads question purposes: a Steps hook or
// a sink of the open span that reads event attributes. Learners format
// a purpose only when it holds, so a silent run, or one traced only by
// sinks that count events, pays nothing for the annotations.
func (in *instr) on() bool {
	return in.ins.Steps != nil || in.cur.EventAttrsRead()
}

// start opens the run's root span; close it with the returned func.
// When metrics are configured the phase-duration histogram
// (qhorn_phase_seconds{phase=name}) observes the span's wall time.
func (in *instr) start(name string, attrs ...obs.Attr) func() {
	root := in.ins.Spans.StartSpan(name, attrs...)
	in.cur = root
	done := in.timePhase(name)
	return func() {
		root.End()
		done()
	}
}

// begin opens a child span of the current span and makes it current;
// the returned func ends it, restores the parent and observes the
// phase-duration histogram. With no span open and no registry there is
// nothing to end or observe, and begin returns the shared no-op, so a
// silent run's per-answer prune phases allocate nothing.
func (in *instr) begin(name string, attrs ...obs.Attr) func() {
	if in.cur == nil && in.ins.Metrics == nil {
		return noop
	}
	parent := in.cur
	sp := parent.StartChild(name, attrs...)
	in.cur = sp
	done := in.timePhase(name)
	return func() {
		sp.End()
		in.cur = parent
		done()
	}
}

// timePhase returns a func observing the phase's wall time into
// qhorn_phase_seconds, or a no-op when metrics are off — the clock is
// only read when someone is listening.
func (in *instr) timePhase(name string) func() {
	if in.ins.Metrics == nil {
		return noop
	}
	h, ok := in.phaseTime[name]
	if !ok {
		if in.phaseTime == nil {
			in.phaseTime = map[string]*obs.Histogram{}
		}
		h = in.ins.Metrics.Histogram(obs.MetricPhaseSeconds, obs.LatencyBuckets, "phase", name)
		in.phaseTime[name] = h
	}
	begun := time.Now()
	return func() { h.Observe(time.Since(begun).Seconds()) }
}

func noop() {}

// note annotates the next question(s) with their phase and purpose.
func (in *instr) note(phase, purpose string) {
	in.phase, in.purpose = phase, purpose
}

// notef annotates the next question with its phase and, only when
// someone reads it (see on), the purpose built from arg.
func notef[T any](in *instr, phase string, purpose func(T) string, arg T) {
	in.phase = phase
	if in.on() {
		in.purpose = purpose(arg)
	}
}

// askBatch asks one batch of independent questions through
// oracle.AskAll and then runs the serial accounting — phase counter,
// note, observe — per question in question order, so a batched run
// reports exactly what the serial run reports. purpose(i) annotates
// question i and is only called when someone reads it.
func askBatch(o oracle.Oracle, in *instr, counter *int, qs []boolean.Set, phase string, purpose func(i int) string) []bool {
	answers := oracle.AskAll(o, qs)
	for i, a := range answers {
		*counter++
		notef(in, phase, purpose, i)
		in.observe(qs[i], a)
	}
	return answers
}

// observe reports one asked question to every configured hook.
func (in *instr) observe(s boolean.Set, answer bool) {
	if in.ins.Steps != nil {
		in.ins.Steps(Step{Phase: in.phase, Purpose: in.purpose, Question: s, Answer: answer})
	}
	switch {
	case in.cur.EventAttrsRead():
		verdict := "non-answer"
		if answer {
			verdict = "answer"
		}
		in.cur.Event("question",
			obs.A("phase", in.phase),
			obs.A("purpose", in.purpose),
			obs.A("question", s.Format(in.u)),
			obs.A("answer", verdict))
	case in.cur != nil:
		in.cur.Event("question")
	}
	if in.ins.Metrics != nil {
		c, ok := in.byPhase[in.phase]
		if !ok {
			if in.byPhase == nil {
				in.byPhase = map[string]*obs.Counter{}
			}
			c = in.ins.Metrics.Counter(obs.MetricQuestionsByPhase, "phase", in.phase)
			in.byPhase[in.phase] = c
		}
		c.Inc()
	}
}

// visited counts one explored lattice node.
func (in *instr) visited() {
	if in.ins.Metrics != nil {
		if in.latticeVisited == nil {
			in.latticeVisited = in.ins.Metrics.Counter(obs.MetricLatticeVisited)
		}
		in.latticeVisited.Inc()
	}
}

// pruned counts lattice nodes skipped by dominance or violation
// pruning.
func (in *instr) pruned(n int) {
	if in.ins.Metrics != nil && n > 0 {
		if in.latticePruned == nil {
			in.latticePruned = in.ins.Metrics.Counter(obs.MetricLatticePruned)
		}
		in.latticePruned.Add(int64(n))
	}
}
