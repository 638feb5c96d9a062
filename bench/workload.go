package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qhorn/internal/obs"
)

// config is one workload run.
type config struct {
	seed int64
	// seconds is the measured time: rounds repeat until it has elapsed,
	// with at least one untraced (and, when tracing, one traced) round.
	seconds float64
	// workers is the closed-loop client count, set from the workload's
	// spec.
	workers int
	// trace adds traced rounds, which report the per-layer metrics.
	trace bool
	// traceDir, when set, receives the sampled spans (spans.jsonl).
	traceDir string
	// small shrinks every workload to a few ops, for the smoke test.
	small bool
}

// setupRepeats is how often a run builds its workload; setup_s is the
// median, so one slow set-up (a cold page cache, a GC) does not move it.
const setupRepeats = 3

// Spans are kept for every spanEvery-th op of the traced rounds, up to
// maxSpanOps ops per run, which bounds the in-memory span buffer.
const (
	spanEvery  = 16
	maxSpanOps = 48
)

// bench is one workload built and ready to run rounds.
type bench interface {
	// assignment lists, per worker, the ops the worker runs each round,
	// in order.
	assignment() [][]int
	// op runs op i on worker w.
	op(rc *roundCtx, w, i int, rec *recorder)
	close()
}

// tracePreparer is a bench that needs work before its traced rounds.
type tracePreparer interface {
	prepareTrace() error
}

// workloadSpec names a workload and builds it.
type workloadSpec struct {
	name  string
	setup func(cfg config) (bench, error)
	// workers is the closed-loop client count, capped at the core count.
	workers int
	// rows are the layers of the traced breakdown, residual excluded.
	rows []string
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// roundCtx describes the round an op runs in.
type roundCtx struct {
	// index numbers the rounds of a run; 0 is the warm-up round.
	index  int
	traced bool
	// tracer is non-nil in measured traced rounds.
	tracer   *obs.Tracer
	spanOps  *atomic.Int64 // ops left to sample
	workload string
}

// sampled reports whether op i records spans.
func (rc *roundCtx) sampled(i int) bool {
	return rc.tracer != nil && i%spanEvery == 0 && rc.spanOps.Add(-1) >= 0
}

// root opens the root span of a sampled op, or returns nil.
func (rc *roundCtx) root(i int, attrs ...obs.Attr) *obs.Span {
	if !rc.sampled(i) {
		return nil
	}
	base := []obs.Attr{obs.A("workload", rc.workload), obs.Af("op", "r%d-%d", rc.index, i)}
	return rc.tracer.StartSpan("op", append(base, attrs...)...)
}

// recorder accumulates one worker's measurements in one round. A worker
// owns its recorder, so recording takes no lock.
type recorder struct {
	lat latencySet
	// sum holds named totals: counts, and durations in nanoseconds.
	sum  map[string]float64
	errs []string
}

func newRecorder() *recorder { return &recorder{sum: map[string]float64{}} }

func (r *recorder) add(key string, v float64)          { r.sum[key] += v }
func (r *recorder) addDur(key string, d time.Duration) { r.sum[key] += float64(d) }

// layer adds d to a row of the traced breakdown.
func (r *recorder) layer(row string, d time.Duration) { r.sum["layer."+row] += float64(d) }

// done records one successful op.
func (r *recorder) done(wall time.Duration) {
	r.sum["ops"]++
	r.lat.op.add(wall)
}

// fail records one failed op.
func (r *recorder) fail(format string, args ...interface{}) {
	r.sum["failed"]++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	r.lat.merge(&o.lat)
	for k, v := range o.sum {
		r.sum[k] += v
	}
	r.errs = append(r.errs, o.errs...)
}

// round is the outcome of one round.
type round struct {
	traced bool
	wall   time.Duration
	cpu    time.Duration // process user+sys
	alloc  float64       // heap bytes allocated
	gcCPU  float64       // GC CPU seconds
	allCPU float64       // total CPU seconds, as the runtime counts them
	rec    *recorder
	// pct holds the round's latency percentiles; see percentileMS.
	pct map[percentile]float64
}

func (r *round) opsPerSec() float64 { return r.rec.sum["ops"] / r.wall.Seconds() }

// runRound runs every op of the assignment once, each worker in a
// closed loop over its ops.
func runRound(b bench, rc *roundCtx) *round {
	runtime.GC()
	before := readProcStats()
	start := time.Now()
	assign := b.assignment()
	recs := make([]*recorder, len(assign))
	var wg sync.WaitGroup
	for w, ops := range assign {
		recs[w] = newRecorder()
		wg.Add(1)
		go func(w int, ops []int) {
			defer wg.Done()
			for _, i := range ops {
				b.op(rc, w, i, recs[w])
			}
		}(w, ops)
	}
	wg.Wait()
	wall := time.Since(start)
	after := readProcStats()
	rec := newRecorder()
	for _, r := range recs {
		rec.merge(r)
	}
	return &round{
		traced: rc.traced,
		wall:   wall,
		cpu:    after.cpu - before.cpu,
		alloc:  after.alloc - before.alloc,
		gcCPU:  after.gcCPU - before.gcCPU,
		allCPU: after.allCPU - before.allCPU,
		rec:    rec,
	}
}

// procStats are the process counters read at round boundaries.
type procStats struct {
	cpu                  time.Duration
	alloc, gcCPU, allCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProcStats() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return procStats{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  float64(s[0].Value.Uint64()),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
	}
}

// peakRSSMB is this process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is one workload run, as a child process hands it to the
// parent.
type result struct {
	Workload     string             `json:"workload"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Correct      bool               `json:"correct"`
	Errors       []string           `json:"errors,omitempty"`
	Workers      int                `json:"workers"`
	OpsPerRound  int                `json:"ops_per_round"`
	Rounds       int                `json:"rounds"`
	TracedRounds int                `json:"traced_rounds"`
	Samples      map[string]int     `json:"samples"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Layers       *layerReport       `json:"layers,omitempty"`
}

// runWorkload builds and runs one workload in this process.
func runWorkload(name string, cfg config) (*result, error) {
	spec, ok := lookupWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	cfg.workers = min(spec.workers, runtime.NumCPU())
	var b bench
	setups := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		start := time.Now()
		nb, err := spec.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		b = nb
	}
	defer b.close()

	res := &result{Workload: name, Workers: cfg.workers, Samples: map[string]int{}}
	for _, ops := range b.assignment() {
		res.OpsPerRound += len(ops)
	}
	count := func(r *round) {
		res.Attempted += int(r.rec.sum["ops"] + r.rec.sum["failed"])
		res.Failed += int(r.rec.sum["failed"])
		res.Errors = append(res.Errors, r.rec.errs...)
	}
	var spanBuf bytes.Buffer
	var tracer *obs.Tracer
	spanOps := &atomic.Int64{}
	index := 0
	// plainLat pools the latencies of the measured untraced rounds; every
	// round's own histograms are dropped once pooled.
	var plainLat latencySet
	next := func(traced bool) *round {
		rc := &roundCtx{index: index, workload: name, traced: traced, spanOps: spanOps}
		if traced {
			rc.tracer = tracer
		}
		index++
		r := runRound(b, rc)
		count(r)
		return r
	}
	measure := func(traced bool) *round {
		r := next(traced)
		if !traced {
			plainLat.merge(&r.rec.lat)
			r.pct = r.rec.lat.roundPercentiles()
		}
		r.rec.lat = latencySet{}
		return r
	}
	next(false) // warm-up
	if cfg.trace {
		if p, ok := b.(tracePreparer); ok {
			if err := p.prepareTrace(); err != nil {
				return nil, fmt.Errorf("%s: preparing the traced run: %w", name, err)
			}
		}
		next(true) // traced warm-up, with no spans kept
		tracer = obs.NewTracer(obs.NewJSONLSink(&spanBuf))
		spanOps.Store(maxSpanOps)
	}

	var plain, traced []*round
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < cfg.seconds; k++ {
		switch {
		case !cfg.trace:
			plain = append(plain, measure(false))
		case k%2 == 0:
			// Pairs alternate which round goes first, so drift over the
			// run does not bias trace.overhead_frac.
			plain = append(plain, measure(false))
			traced = append(traced, measure(true))
		default:
			traced = append(traced, measure(true))
			plain = append(plain, measure(false))
		}
	}
	res.Rounds, res.TracedRounds = len(plain), len(traced)
	res.Samples["op"], res.Samples["first_question"], res.Samples["next_question"] =
		plainLat.op.n, plainLat.first.n, plainLat.next.n
	res.EndToEnd = endToEnd(setups, plain, &plainLat)
	res.EndToEnd["peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		res.PerLayer = perLayer(plain, traced, &plainLat)
		res.Layers = layersOf(spec, traced)
		if err := sameCounts(plain, traced); err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
		}
		if cfg.traceDir != "" {
			if err := appendFile(filepath.Join(cfg.traceDir, "spans.jsonl"), spanBuf.Bytes()); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// sameCounts checks that tracing changed no question stream: the
// traced rounds ask the same questions and make the same round trips
// per op as the untraced ones.
func sameCounts(plain, traced []*round) error {
	p, t := total(plain), total(traced)
	for _, k := range []string{"questions", "round_trips"} {
		if p[k]/p["ops"] != t[k]/t["ops"] {
			return fmt.Errorf("traced run has %g %s per op, untraced %g", t[k]/t["ops"], k, p[k]/p["ops"])
		}
	}
	return nil
}

func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// total sums the recorders of the rounds.
func total(rounds []*round) map[string]float64 {
	t := map[string]float64{}
	for _, r := range rounds {
		for k, v := range r.rec.sum {
			t[k] += v
		}
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perRound maps each round to one value.
func perRound(rounds []*round, f func(*round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentileMS is the median over the rounds of each round's q-quantile
// of the named latency, which a burst of host load in one round does not
// move the way it moves a pooled tail. When a round has fewer than ten
// samples beyond the quantile, it is read from the pooled rounds instead.
func percentileMS(plain []*round, pooled *latencySet, name string, q float64) float64 {
	p := percentile{name, q}
	vals := make([]float64, 0, len(plain))
	for _, r := range plain {
		v, ok := r.pct[p]
		if !ok {
			return pooled.of(name).quantileMS(q)
		}
		vals = append(vals, v)
	}
	return median(vals)
}

// endToEnd computes the end-to-end metrics from the untraced rounds and
// their pooled latencies; peak_rss_mb is the caller's.
func endToEnd(setups []float64, plain []*round, lat *latencySet) map[string]float64 {
	t := total(plain)
	return map[string]float64{
		"setup_s":               median(setups),
		"ops_per_s":             median(perRound(plain, (*round).opsPerSec)),
		"op_p50_ms":             percentileMS(plain, lat, "op", 0.50),
		"next_question_p50_ms":  percentileMS(plain, lat, "next", 0.50),
		"first_question_p50_ms": percentileMS(plain, lat, "first", 0.50),
		"questions_per_op":      ratio(t["questions"], t["ops"]),
		"round_trips_per_op":    ratio(t["round_trips"], t["ops"]),
		"cpu_ms_per_op": median(perRound(plain, func(r *round) float64 {
			return ratio(float64(r.cpu)/1e6, r.rec.sum["ops"])
		})),
	}
}

// perLayer computes the per-layer metrics: counts and tails from the
// untraced rounds, times from the traced ones. A layer the workload
// does not run reports 0.
func perLayer(plain, traced []*round, lat *latencySet) map[string]float64 {
	p, t := total(plain), total(traced)
	handlerUS := func(route string) float64 {
		return ratio(t["handler_ns."+route], t["handler_calls."+route]) / 1e3
	}
	var alloc, gc, all float64
	for _, r := range plain {
		alloc += r.alloc
		gc += r.gcCPU
		all += r.allCPU
	}
	// The serve tails are reported on the HTTP workloads only.
	serveOnly := func(v float64) float64 {
		if p["http_requests"] == 0 {
			return 0
		}
		return v
	}
	memoSaved := 0.0
	if p["warm_reference"] > 0 {
		memoSaved = 1 - p["warm_questions"]/p["warm_reference"]
	}
	return map[string]float64{
		"op_p99_ms":                   percentileMS(plain, lat, "op", 0.99),
		"next_question_p99_ms":        percentileMS(plain, lat, "next", 0.99),
		"serve.handler_us.answers":    handlerUS("answers"),
		"serve.handler_us.questions":  handlerUS("questions"),
		"serve.handler_us.create":     handlerUS("create"),
		"serve.handler_us.amend":      handlerUS("amend"),
		"serve.transport_us_per_rt":   ratio(t["rt_ns"]-t["rt_handler_ns"], t["timed_rt"]) / 1e3,
		"serve.questions_per_rt":      ratio(p["http_questions"], p["http_requests"]),
		"serve.memo_saved_frac":       memoSaved,
		"serve.next_question_p999_ms": serveOnly(percentileMS(plain, lat, "next", 0.999)),
		"serve.first_question_p99_ms": serveOnly(percentileMS(plain, lat, "first", 0.99)),
		"session.us_per_question":     ratio(t["layer.session"], t["engine_questions"]) / 1e3,
		"learn.us_per_question":       ratio(t["layer.learn"], t["learn_questions"]) / 1e3,
		"learn.batches_per_op":        ratio(p["batches"], p["ops"]),
		"verify.build_us":             ratio(t["verify_build_ns"], t["verify_builds"]) / 1e3,
		"revise.us_per_amend":         ratio(t["layer.revise"], t["amends"]) / 1e3,
		"revise.questions_per_amend":  ratio(p["amend_questions"], p["amends"]),
		"query.eval_ns_per_question":  ratio(t["eval_ns"], t["questions"]),
		"user.answer_us_per_question": ratio(t["user_ns"], t["questions"]) / 1e3,
		"runtime.alloc_kb_per_op":     ratio(alloc, p["ops"]) / 1e3,
		"runtime.gc_cpu_frac":         ratio(gc, all),
		"trace.overhead_frac": 1 - ratio(median(perRound(traced, (*round).opsPerSec)),
			median(perRound(plain, (*round).opsPerSec))),
		"trace.residual_frac": ratio(t["layer.residual"], t["layer.wall"]),
	}
}
