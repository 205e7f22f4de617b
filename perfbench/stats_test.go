package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		value   float64
		percent float64
	}{
		{n: 21, value: 11, percent: 100 * 11.0 / 21},
		{n: 40, value: 30, percent: 75},
		{n: 100, value: 90, percent: 90},
		{n: 1000, value: 990, percent: 99},
	} {
		xs := seq(tc.n)
		v, p := tail(xs)
		if v != tc.value || p != tc.percent {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, p, tc.value, tc.percent)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestTailFallsBackToMedianOnFewSamples(t *testing.T) {
	for _, n := range []int{1, 2, 10, 20} {
		xs := seq(n)
		v, p := tail(xs)
		if v != median(xs) || p != 50 {
			t.Errorf("n=%d: tail = %v at p%v, want the median %v at p50", n, v, p, median(xs))
		}
	}
}

func TestSetTailRecordsPercentile(t *testing.T) {
	rep := newReport()
	rep.setTail("answer_ms.tail", seq(40))
	if rep.values["answer_ms.tail"] != 30 {
		t.Errorf("value %v, want 30", rep.values["answer_ms.tail"])
	}
	if got, want := rep.notes["answer_ms.tail"], "p75.0 of n=40"; got != want {
		t.Errorf("note %q, want %q", got, want)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	o := openLoop{start: start, rate: 4}
	if got, want := o.due(6), start.Add(1500*time.Millisecond); !got.Equal(want) {
		t.Fatalf("due(6) = %v, want %v", got, want)
	}
	// Request 6 was sent 200ms late behind a stall and answered 100ms
	// after it was sent: its latency includes the stall.
	sent := o.due(6).Add(200 * time.Millisecond)
	done := sent.Add(100 * time.Millisecond)
	if got := o.latency(6, done); got != 300*time.Millisecond {
		t.Errorf("latency = %v, want 300ms (from the due time, not the send time)", got)
	}
	if got := o.lateness(6, sent); got != 200*time.Millisecond {
		t.Errorf("lateness = %v, want 200ms", got)
	}
	if got := o.lateness(6, o.due(6).Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early send has lateness %v, want 0", got)
	}
}

func TestFailFracCountsEveryAttempt(t *testing.T) {
	var tl tally
	for _, o := range []outcome{outcomeOK, outcomeOK, outcomeOK, outcomeOK, outcomeOK,
		outcomeRefused, outcomePartial, outcomeError, outcomeBadCheck, outcomeOK} {
		tl.add(o)
	}
	if tl.attempted() != 10 || tl.failed() != 4 {
		t.Fatalf("attempted %d failed %d, want 10 and 4", tl.attempted(), tl.failed())
	}
	if got := tl.failFrac(); got != 0.4 {
		t.Errorf("fail_frac = %v, want 0.4: refused, partial and aborted attempts count in the denominator and as failures", got)
	}
	var empty tally
	if empty.failFrac() != 0 {
		t.Errorf("fail_frac of no attempts = %v, want 0", empty.failFrac())
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {25, 26}, {40, 50}}
	if got := covered(ivs, 0, 100); got != 35 {
		t.Errorf("covered = %v, want 35", got)
	}
	if got := covered(ivs, 8, 22); got != 9 {
		t.Errorf("covered within [8,22) = %v, want 9", got)
	}
}
