package main

import (
	"math"
	"math/bits"
	"time"
)

// latencies is a log-linear histogram of durations: exact below 1024
// ns, then 1024 buckets per power of two, so a quantile is known to
// within 0.1%. Its memory is fixed however many samples a run records,
// so the benchmark's own bookkeeping does not move peak_rss_mb.
type latencies struct {
	counts []uint32
	n      int
}

const (
	latSubBits  = 10
	latSub      = 1 << latSubBits
	latMaxShift = 26 // the last buckets hold everything from 2^36 ns (69 s) up
	latBuckets  = (latMaxShift + 2) * latSub
)

func latIndex(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < latSub {
		return int(v)
	}
	shift := bits.Len64(v) - latSubBits - 1
	if shift > latMaxShift {
		return latBuckets - 1
	}
	return (shift+1)<<latSubBits + int(v>>uint(shift)) - latSub
}

// latValue is the midpoint of bucket i, in nanoseconds.
func latValue(i int) float64 {
	if i < latSub {
		return float64(i)
	}
	shift := i>>latSubBits - 1
	low := uint64(i&(latSub-1)+latSub) << uint(shift)
	return float64(low) + float64(uint64(1)<<uint(shift)-1)/2
}

func (h *latencies) add(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]uint32, latBuckets)
	}
	h.counts[latIndex(d)]++
	h.n++
}

func (h *latencies) merge(o *latencies) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, latBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMS is the q-quantile (nearest rank) in milliseconds, 0 with
// no samples.
func (h *latencies) quantileMS(q float64) float64 {
	rank := int(math.Ceil(q * float64(h.n)))
	rank = max(1, min(rank, h.n))
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return latValue(i) / 1e6
		}
	}
	return 0
}

// latencySet holds an op's three latencies: the whole op, the wait for
// the first question, and each wait for a next question.
type latencySet struct {
	op, first, next latencies
}

func (s *latencySet) merge(o *latencySet) {
	s.op.merge(&o.op)
	s.first.merge(&o.first)
	s.next.merge(&o.next)
}

// percentile names one reported latency quantile.
type percentile struct {
	lat string // "op", "first" or "next"
	q   float64
}

// reportedPercentiles are the quantiles the metrics read.
var reportedPercentiles = []percentile{
	{"op", 0.50}, {"op", 0.99},
	{"next", 0.50}, {"next", 0.99}, {"next", 0.999},
	{"first", 0.50}, {"first", 0.99},
}

func (s *latencySet) of(name string) *latencies {
	switch name {
	case "op":
		return &s.op
	case "first":
		return &s.first
	}
	return &s.next
}

// roundPercentiles reads a round's reported quantiles that have at least
// ten samples beyond them.
func (s *latencySet) roundPercentiles() map[percentile]float64 {
	out := map[percentile]float64{}
	for _, p := range reportedPercentiles {
		h := s.of(p.lat)
		if float64(h.n)*(1-p.q) >= 10 {
			out[p] = h.quantileMS(p.q)
		}
	}
	return out
}
