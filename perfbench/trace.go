package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/stream"
)

// span is one timed interval at a layer boundary. Spans of one answer share
// Answer; Parent is the ID of the span that caused it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Answer int    `json:"answer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Edges and ReadNs are filled on stream.scan spans: edges delivered and
	// time spent inside Reset/NextBatch, summed over range sub-streams.
	Edges  int64 `json:"edges,omitempty"`
	ReadNs int64 `json:"read_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent, answer int) int {
	return t.add(span{Parent: parent, Answer: answer, Name: name, Start: t.now(), End: -1})
}

func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// children returns the finished spans whose parent is id and whose name
// starts with prefix.
func (t *tracer) children(id int, prefix string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id && s.End >= 0 && strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// interval is a [start, end) range in tracer nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers, so
// concurrent children are not counted twice.
func covered(ivs []interval, lo, hi int64) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	curE = -1
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
		} else if iv.end > curE {
			curE = iv.end
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// readLog collects what a timedStream and its range sub-streams observe:
// every read interval, and the physical scans, each opened by a Reset of the
// top-level stream (the sharded engine resets the top level once per scan,
// sequential or parallel, and reads shards through sub-streams).
type readLog struct {
	tr     *tracer
	answer int
	parent int

	mu         sync.Mutex
	firstReset int64 // -1 until the first top-level Reset
	reads      []interval
	edges      int64
	scans      []int // stream.scan span IDs, in order
	scanEdges  int64 // edges of the open scan
	scanReadNs int64
	rangeCalls int
}

func newReadLog(tr *tracer, parent, answer int) *readLog {
	return &readLog{tr: tr, parent: parent, answer: answer, firstReset: -1}
}

func (l *readLog) record(start int64, n int) {
	end := l.tr.now()
	l.mu.Lock()
	l.reads = append(l.reads, interval{start, end})
	l.edges += int64(n)
	l.scanEdges += int64(n)
	l.scanReadNs += end - start
	l.mu.Unlock()
}

// startScan closes the open scan span, if any, and opens the next.
func (l *readLog) startScan(at int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.firstReset < 0 {
		l.firstReset = at
	}
	l.closeScanLocked(at)
	l.scans = append(l.scans, l.tr.add(span{Parent: l.parent, Answer: l.answer, Name: "stream.scan", Start: at, End: -1}))
}

func (l *readLog) closeScanLocked(at int64) {
	if len(l.scans) == 0 {
		return
	}
	id := l.scans[len(l.scans)-1]
	l.tr.mu.Lock()
	if s := &l.tr.spans[id]; s.End < 0 {
		s.End, s.Edges, s.ReadNs = at, l.scanEdges, l.scanReadNs
	}
	l.tr.mu.Unlock()
	l.scanEdges, l.scanReadNs = 0, 0
}

// finish closes the last scan span.
func (l *readLog) finish() {
	l.mu.Lock()
	l.closeScanLocked(l.tr.now())
	l.mu.Unlock()
}

// readIntervals returns a copy of the read intervals seen so far.
func (l *readLog) readIntervals() []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]interval(nil), l.reads...)
}

func (l *readLog) readTotal() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d int64
	for _, iv := range l.reads {
		d += iv.end - iv.start
	}
	return time.Duration(d)
}

// timedStream times every call that reads edges. It forwards Len and, when
// the wrapped stream has it, range access — wrapping each sub-stream and its
// Close — so the sharded engine takes the same parallel path it takes on the
// bare stream; a wrapper without RangeStream would measure the sequential
// fallback instead.
type timedStream struct {
	inner stream.Stream
	log   *readLog
	top   bool
}

func newTimedStream(inner stream.Stream, log *readLog) *timedStream {
	return &timedStream{inner: inner, log: log, top: true}
}

func (s *timedStream) Reset() error {
	start := s.log.tr.now()
	if s.top {
		s.log.startScan(start)
	}
	err := s.inner.Reset()
	s.log.record(start, 0)
	return err
}

func (s *timedStream) Next() (graph.Edge, error) {
	start := s.log.tr.now()
	e, err := s.inner.Next()
	n := 0
	if err == nil {
		n = 1
	}
	s.log.record(start, n)
	return e, err
}

func (s *timedStream) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	start := s.log.tr.now()
	batch, err := s.inner.NextBatch(buf)
	s.log.record(start, len(batch))
	return batch, err
}

func (s *timedStream) Len() (int, bool) { return s.inner.Len() }

func (s *timedStream) RangeStream(lo, hi int) (stream.Stream, bool) {
	rs, ok := s.inner.(stream.RangeStreamer)
	if !ok {
		return nil, false
	}
	s.log.mu.Lock()
	s.log.rangeCalls++
	s.log.mu.Unlock()
	sub, ok := rs.RangeStream(lo, hi)
	if !ok {
		return nil, false
	}
	return &timedStream{inner: sub, log: s.log}, true
}

func (s *timedStream) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// passKinds names the passes package's pass bodies as the benchmark reports
// them.
var passKinds = map[string]string{
	"SampleUniformEdges":  "sample_edges",
	"CountDegrees":        "degrees",
	"SampleNeighbors":     "neighbors",
	"ClosureBits":         "closure",
	"SampleNeighborBanks": "neighbor_banks",
	"ClosureCounts":       "closure_counts",
	"CountDegreesMasked":  "peel_degrees",
	"MaxVertexID":         "peel_max_id",
}

// passKindOrder fixes the order kinds are reported in.
var passKindOrder = []string{
	"sample_edges", "degrees", "neighbors", "closure", "neighbor_banks",
	"closure_counts", "peel_max_id", "peel_degrees",
}

const passesPkg = "degentri/internal/passes."

// callerPassKind names the exported passes function on the call stack, i.e.
// the pass body that called RunPass.
func callerPassKind() string {
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(3, pcs)])
	for {
		f, more := frames.Next()
		if name, ok := strings.CutPrefix(f.Function, passesPkg); ok {
			if kind, known := passKinds[name]; known {
				return kind
			}
		}
		if !more {
			return "other"
		}
	}
}

// timedExecutor wraps a passes.Executor and records one passes.<kind> span
// per logical pass, with the process and merge callbacks timed as its
// children.
type timedExecutor struct {
	passes.Executor
	tr     *tracer
	parent int
	answer int

	mu     sync.Mutex
	bodies map[int][]interval // pass span ID → process intervals
	merges map[int][]interval
}

func newTimedExecutor(x passes.Executor, tr *tracer, parent, answer int) *timedExecutor {
	return &timedExecutor{Executor: x, tr: tr, parent: parent, answer: answer,
		bodies: map[int][]interval{}, merges: map[int][]interval{}}
}

func (x *timedExecutor) RunPass(process func(shard int, batch []graph.Edge) error, merge func(shard int) error) error {
	id := x.tr.begin("passes."+callerPassKind(), x.parent, x.answer)
	timed := func(dst map[int][]interval, fn func() error) error {
		start := x.tr.now()
		err := fn()
		end := x.tr.now()
		x.mu.Lock()
		dst[id] = append(dst[id], interval{start, end})
		x.mu.Unlock()
		return err
	}
	err := x.Executor.RunPass(
		func(shard int, batch []graph.Edge) error {
			return timed(x.bodies, func() error { return process(shard, batch) })
		},
		func(shard int) error {
			return timed(x.merges, func() error { return merge(shard) })
		})
	x.tr.end(id)
	return err
}

// passStats is the per-kind time of one traced run.
type passStats struct {
	wall, body, merge, engine time.Duration
}

// passBreakdown attributes each pass span under parent to its kind: wall is
// the span, body and merge the summed callback times, and engine the part of
// the span no body, merge or read interval covers — the sharded engine's own
// self time (dispatch, shard hand-off, barrier waits).
func (x *timedExecutor) passBreakdown(reads []interval) map[string]*passStats {
	out := map[string]*passStats{}
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, s := range x.tr.children(x.parent, "passes.") {
		kind := strings.TrimPrefix(s.Name, "passes.")
		st := out[kind]
		if st == nil {
			st = &passStats{}
			out[kind] = st
		}
		st.wall += s.dur()
		var busy []interval
		for _, iv := range x.bodies[s.ID] {
			st.body += time.Duration(iv.end - iv.start)
			busy = append(busy, iv)
		}
		for _, iv := range x.merges[s.ID] {
			st.merge += time.Duration(iv.end - iv.start)
			busy = append(busy, iv)
		}
		busy = append(busy, reads...)
		st.engine += s.dur() - covered(busy, s.Start, s.End)
	}
	return out
}
