package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail value: a
// tail estimated from fewer outliers than this moves with every run.
const tailBeyond = 10

// median returns the median of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic that still has tailBeyond samples
// above it — the (tailBeyond+1)-th largest — and the percentile it sits at,
// the share of samples at or below it. With too few samples for that value
// to lie above the median, it reports the median at percentile 50.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n < 2*tailBeyond+1 {
		return median(xs), 50
	}
	s := sorted(xs)
	k := n - tailBeyond // 1-based rank of the value
	return s[k-1], 100 * float64(k) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome classifies one attempted answer. Every attempt lands in exactly
// one class; all but outcomeOK count as failures.
type outcome int

const (
	outcomeOK       outcome = iota // complete answer that passed every check
	outcomeError                   // transport or library error
	outcomeRefused                 // 429/503/504 from the daemon
	outcomePartial                 // partial or aborted result
	outcomeBadCheck                // a correctness check failed
)

// tally counts attempts by outcome.
type tally struct {
	counts [outcomeBadCheck + 1]int
}

func (t *tally) add(o outcome) { t.counts[o]++ }

func (t *tally) attempted() int {
	n := 0
	for _, c := range t.counts {
		n += c
	}
	return n
}

func (t *tally) failed() int { return t.attempted() - t.counts[outcomeOK] }

// failFrac is failures over every attempt, refused, partial and aborted
// ones included.
func (t *tally) failFrac() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}

// openLoop is the schedule of an open-loop load generator: request i is due
// at start + i/rate whether or not earlier requests have finished.
type openLoop struct {
	start time.Time
	rate  float64 // requests per second
}

func (o openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(float64(i) / o.rate * float64(time.Second)))
}

// latency is the time from when a request was due to when its answer
// arrived, so a stall also counts against the requests queued behind it.
func (o openLoop) latency(i int, done time.Time) time.Duration { return done.Sub(o.due(i)) }

// lateness is how far behind schedule the generator sent request i.
func (o openLoop) lateness(i int, sent time.Time) time.Duration {
	if d := sent.Sub(o.due(i)); d > 0 {
		return d
	}
	return 0
}
