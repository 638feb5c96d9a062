package main

import (
	"slices"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
)

// layerRow is one layer of the traced op-time breakdown.
type layerRow struct {
	Layer   string  `json:"layer"`
	USPerOp float64 `json:"us_per_op"`
	Share   float64 `json:"share"`
}

// layerReport is one workload's entry in layers.json: the traced ops'
// mean wall time and the rows that sum to it, residual last.
type layerReport struct {
	Workload string     `json:"workload"`
	Ops      int        `json:"ops"`
	OpWallUS float64    `json:"op_wall_us"`
	Rows     []layerRow `json:"rows"`
}

// layersOf builds the breakdown from the traced rounds.
func layersOf(spec workloadSpec, traced []*round) *layerReport {
	t := total(traced)
	ops := t["ops"]
	wall := ratio(t["layer.wall"], ops) / 1e3
	rep := &layerReport{Workload: spec.name, Ops: int(ops), OpWallUS: wall}
	for _, row := range append(slices.Clone(spec.rows), "residual") {
		us := ratio(t["layer."+row], ops) / 1e3
		rep.Rows = append(rep.Rows, layerRow{Layer: row, USPerOp: us, Share: ratio(us, wall)})
	}
	return rep
}

// spanStack tracks the innermost open span of a sampled op, so timing
// wrappers nest their spans under the caller's. With a nil stack or a
// nil current span every method is a no-op.
type spanStack struct{ cur *obs.Span }

// push opens a child span and makes it current; pop(prev) closes it.
func (s *spanStack) push(name string) (prev *obs.Span) {
	if s == nil {
		return nil
	}
	prev = s.cur
	s.cur = prev.StartChild(name)
	return prev
}

func (s *spanStack) pop(prev *obs.Span) {
	if s == nil {
		return
	}
	s.cur.End()
	s.cur = prev
}

// timedOracle measures the time spent below it in the oracle stack and
// counts the questions passing through. It forwards batches as
// batches, so wrapping changes no question stream.
type timedOracle struct {
	inner     oracle.Oracle
	name      string
	spans     *spanStack
	busy      time.Duration
	questions int
}

func (o *timedOracle) Ask(q boolean.Set) bool {
	prev := o.spans.push(o.name)
	start := time.Now()
	a := o.inner.Ask(q)
	o.busy += time.Since(start)
	o.questions++
	o.spans.pop(prev)
	return a
}

func (o *timedOracle) AskBatch(qs []boolean.Set) []bool {
	prev := o.spans.push(o.name)
	start := time.Now()
	a := oracle.AskAll(o.inner, qs)
	o.busy += time.Since(start)
	o.questions += len(qs)
	o.spans.pop(prev)
	return a
}

// userClock is the in-process simulated user at the bottom of the
// oracle stack. It records the user's wait for the first and each next
// question, counts the questions and calls that reach the user, and
// measures the user's own answering time.
type userClock struct {
	inner oracle.Oracle
	rec   *recorder
	spans *spanStack
	// last is when the user last answered; the op start before the
	// first question.
	last      time.Time
	calls     int
	questions int
	busy      time.Duration
}

func (u *userClock) begin(n int) time.Time {
	now := time.Now()
	if u.calls == 0 {
		u.rec.lat.first.add(now.Sub(u.last))
	} else {
		u.rec.lat.next.add(now.Sub(u.last))
	}
	u.calls++
	u.questions += n
	return now
}

func (u *userClock) end(start time.Time) {
	u.last = time.Now()
	u.busy += u.last.Sub(start)
}

func (u *userClock) Ask(q boolean.Set) bool {
	start := u.begin(1)
	prev := u.spans.push("user.ask")
	a := u.inner.Ask(q)
	u.spans.pop(prev)
	u.end(start)
	return a
}

func (u *userClock) AskBatch(qs []boolean.Set) []bool {
	start := u.begin(len(qs))
	prev := u.spans.push("user.ask")
	a := oracle.AskAll(u.inner, qs)
	u.spans.pop(prev)
	u.end(start)
	return a
}
