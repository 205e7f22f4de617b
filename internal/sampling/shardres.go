package sampling

import "math"

// This file provides the reservoir primitives of the sharded pass engine.
// A sharded pass splits one stream pass into contiguous shards that are
// processed concurrently, so the usual "one RNG consumed in stream order"
// discipline breaks: the randomness a shard consumes must not depend on how
// the other shards are scheduled. The engine therefore uses
//
//   - MixSeed to derive an independent RNG stream per (pass, instance, shard)
//     key, so the draws inside a shard are a pure function of the seed and the
//     shard's data;
//   - Res1/ResK, skip-ahead reservoirs carrying their own keyed RNG, as the
//     per-shard accumulators (a short ResK defers its draws to the merge);
//   - Res1Merger/ResKMerger, which combine per-shard reservoirs in ascending
//     shard order with one draw per (sub-reservoir, shard) from a keyed merge
//     RNG: a reservoir of weight n absorbed into an accumulator of weight N
//     replaces the kept sample with probability n/(N+n), which keeps the
//     merged sample uniform over the union.
//
// Because every draw is keyed by stable indices and merges happen in shard
// order, the merged samples are identical for any worker count — the
// determinism contract of the estimators.

// mix64 is the SplitMix64 finalizer, used to scatter seed material.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MixSeed derives the seed of an auxiliary RNG stream from a base seed and a
// sequence of stream keys (pass id, instance index, shard index, ...). The
// same (seed, keys) always yields the same stream; distinct key tuples yield
// independent-looking streams.
func MixSeed(seed uint64, keys ...uint64) uint64 {
	h := mix64(seed + 0x9e3779b97f4a7c15)
	for _, k := range keys {
		h = mix64(h ^ mix64(k+0x9e3779b97f4a7c15))
	}
	return h
}

// Res1 is a size-1 uniform reservoir with skip-ahead acceptance and its own
// RNG stream: instead of one draw per offer, it draws the index of the next
// accepted item directly (given n items seen, the next acceptance T satisfies
// P(T > t) = n/t, i.e. T = ⌊n/u⌋+1 for uniform u), costing O(log n) draws over
// a stream of n offers. The first offer is accepted without consuming any
// randomness and the first skip is drawn lazily at the second offer, so the
// ubiquitous "shard saw exactly one neighbor" case costs zero draws. The zero
// value is unusable; call Init first.
type Res1 struct {
	N     int64 // items offered so far
	W     int   // current sample, valid when N > 0
	next  int64 // 1-based index of the next accepted offer; 0 = not yet drawn
	rng   RNG
	ready bool
}

// Init readies the reservoir with its keyed RNG stream.
func (r *Res1) Init(seed uint64) {
	*r = Res1{rng: RNG{state: seed}, ready: true}
}

// Ready reports whether Init has been called since the last zeroing.
func (r *Res1) Ready() bool { return r.ready }

// Offer presents the next item of the shard's sub-stream.
func (r *Res1) Offer(v int) {
	r.N++
	if r.N == 1 {
		r.W = v // first item: accepted with certainty, no draw
		return
	}
	if r.next == 0 {
		r.next = skipAhead(1, &r.rng)
	}
	if r.N < r.next {
		return
	}
	r.W = v
	r.next = skipAhead(r.N, &r.rng)
}

// skipAhead draws the index of the next accepted offer after an acceptance at
// index n: T = ⌊n/u⌋+1, so that P(T > t) = n/t.
func skipAhead(n int64, rng *RNG) int64 {
	t := float64(n)/rng.Float64Open() + 1
	if t >= math.MaxInt64/2 {
		return math.MaxInt64
	}
	return int64(t)
}

// Res1Merger accumulates per-shard Res1 reservoirs, absorbed in ascending
// shard order, into one uniform sample over all offers.
type Res1Merger struct {
	N   int64 // total items offered across absorbed shards
	W   int   // merged sample, valid when N > 0
	rng RNG
}

// Init readies the merger with its keyed RNG stream and an invalid sample.
func (m *Res1Merger) Init(seed uint64) {
	*m = Res1Merger{W: -1, rng: RNG{state: seed}}
}

// Absorb merges a shard reservoir into the accumulator: the shard's sample
// replaces the kept one with probability r.N/(m.N+r.N). An empty reservoir is
// a no-op, and the first non-empty one is adopted outright; neither consumes
// randomness (both rules depend only on the data, never on worker count).
func (m *Res1Merger) Absorb(r *Res1) {
	if r.N == 0 {
		return
	}
	if m.N == 0 {
		m.N = r.N
		m.W = r.W
		return
	}
	m.N += r.N
	if m.rng.Int63n(m.N) < r.N {
		m.W = r.W
	}
}

// Has reports whether any item has been absorbed.
func (m *Res1Merger) Has() bool { return m.N > 0 }

// ResK is a bank of k independent size-1 uniform reservoirs over the same
// sub-stream ("k uniform samples with replacement"), sharing one RNG stream.
//
// While the bank has seen at most resKPlainLimit items it draws nothing: it
// records the items in buf, and each sub-reservoir's sample is left implicit
// as one independent uniform pick from buf — the same joint law as running
// Algorithm R per sub-reservoir, but the k picks are drawn once per
// (bank, shard) instead of k draws per offer. In a sharded pass almost every
// bank sees only a handful of items of a light endpoint's neighborhood, so
// the picks are drawn where they are needed: by ResKMerger.Absorb, fused with
// its merge draws, or when the bank materializes.
//
// On its (resKPlainLimit+1)-th offer the bank materializes: it draws the k
// picks from buf into W and the next-acceptance index of every sub-reservoir
// into a binary min-heap, so an offer that accepts nowhere costs one
// comparison instead of k, and the total work over n offers is
// O(n + k·log n·log k) rather than O(n·k). The k-sized slices are allocated
// only then, and kept across Init/Drop. The zero value is unusable; call Init
// first.
type ResK struct {
	N    int64
	buf  []int   // the items offered while N <= resKPlainLimit
	W    []int   // W[j]: sample of sub-reservoir j; materialized when N > resKPlainLimit
	heap []int64 // min-heap of next-acceptance indices; built with W
	sub  []int32 // sub[i]: which sub-reservoir heap[i] belongs to
	k    int
	rng  RNG
}

// Init readies the bank for k sub-reservoirs, keeping existing slice
// capacity.
func (r *ResK) Init(seed uint64, k int) {
	r.Drop()
	r.k = k
	r.rng = RNG{state: seed}
}

// Ready reports whether Init has been called since the last Drop.
func (r *ResK) Ready() bool { return r.k != 0 }

// Drop returns the bank to the un-Init state while keeping slice capacity,
// so pooled banks can be reused without reallocating.
func (r *ResK) Drop() {
	r.N = 0
	r.k = 0
	r.buf = r.buf[:0]
	r.W = r.W[:0]
	r.heap = r.heap[:0]
	r.sub = r.sub[:0]
}

// K returns the number of sub-reservoirs.
func (r *ResK) K() int { return r.k }

// resKPlainLimit is the sub-stream length up to which a bank only buffers its
// items. Past it the bank materializes its k samples and switches to the
// skip-ahead heap, whose accepts thin out as 1/N; the buffer bounds the
// deferred state at resKPlainLimit words. The switch depends only on N, never
// on worker count.
const resKPlainLimit = 32

// Offer presents the next item to every sub-reservoir.
func (r *ResK) Offer(v int) {
	r.N++
	if r.N <= resKPlainLimit {
		if r.buf == nil {
			r.buf = make([]int, 0, resKPlainLimit)
		}
		r.buf = append(r.buf, v)
		return
	}
	if len(r.heap) == 0 {
		r.materialize()
	}
	for r.heap[0] <= r.N {
		r.W[r.sub[0]] = v
		r.heap[0] = skipAhead(r.N, &r.rng)
		r.siftDown(0)
	}
}

// materialize turns a full buffer into explicit state: per sub-reservoir, in
// order, a uniform pick from buf and the next acceptance past position
// len(buf); then it heapifies (the heapify consumes no randomness).
func (r *ResK) materialize() {
	if cap(r.W) < r.k {
		r.W = make([]int, r.k)
	}
	if cap(r.heap) < r.k {
		r.heap = make([]int64, r.k)
		r.sub = make([]int32, r.k)
	}
	r.W, r.heap, r.sub = r.W[:r.k], r.heap[:r.k], r.sub[:r.k]
	n := int64(len(r.buf))
	for j := range r.W {
		r.W[j] = r.buf[r.rng.Int63n(n)]
		r.heap[j] = skipAhead(n, &r.rng)
		r.sub[j] = int32(j)
	}
	for i := r.k/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
}

// pick draws one uniform item of a buffered bank from rng; a one-item buffer
// costs no draw.
func (r *ResK) pick(rng *RNG) int {
	if len(r.buf) == 1 {
		return r.buf[0]
	}
	return r.buf[rng.Int63n(int64(len(r.buf)))]
}

// siftDown restores the heap property from position i.
func (r *ResK) siftDown(i int) {
	n := len(r.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if rr := l + 1; rr < n && r.heap[rr] < r.heap[l] {
			min = rr
		}
		if r.heap[i] <= r.heap[min] {
			return
		}
		r.heap[i], r.heap[min] = r.heap[min], r.heap[i]
		r.sub[i], r.sub[min] = r.sub[min], r.sub[i]
		i = min
	}
}

// ResKMerger accumulates per-shard ResK banks, absorbed in ascending shard
// order, into k uniform samples over all offers.
type ResKMerger struct {
	N   int64
	W   []int // merged samples; -1 until the first absorb
	rng RNG
}

// Init readies the merger for k sub-reservoirs.
func (m *ResKMerger) Init(seed uint64, k int) {
	m.N = 0
	m.rng = RNG{state: seed}
	if cap(m.W) < k {
		m.W = make([]int, k)
	}
	m.W = m.W[:k]
	for j := range m.W {
		m.W[j] = -1
	}
}

// Absorb merges a shard bank into the accumulator. Each sub-reservoir keeps
// the shard's sample with probability r.N/(total), decided independently —
// but instead of one draw per sub-reservoir, the replaced positions are
// enumerated by geometric skipping (iid Bernoulli successes are memoryless),
// so the expected cost is k·r.N/total draws, and absorbing the tail shards of
// a high-degree endpoint costs almost nothing. An empty bank is a no-op; the
// first non-empty materialized one is adopted by swapping slices, consuming
// no randomness.
//
// A bank that still buffers its items has its deferred picks drawn here, from
// the merge RNG, only for the sub-reservoirs that take the shard's sample:
// adopting it draws one pick per sub-reservoir (none when it holds one item);
// the plain path's acceptance draw u < r.N is itself a uniform pick, buf[u];
// the geometric path draws one pick per replaced position. All rules depend
// only on the data, never on the worker count.
func (m *ResKMerger) Absorb(r *ResK) {
	if r.N == 0 {
		return
	}
	buffered := len(r.W) == 0 // the bank's samples are deferred picks from r.buf
	if m.N == 0 {
		m.N = r.N
		if !buffered {
			m.W, r.W = r.W, m.W[:0]
			return
		}
		for j := range m.W {
			m.W[j] = r.pick(&m.rng)
		}
		return
	}
	m.N += r.N
	p := float64(r.N) / float64(m.N) // < 1: the accumulator was non-empty
	// Geometric skipping only pays off when replacements are sparse (its
	// draw costs two logarithms); for high p or small banks a plain draw per
	// sub-reservoir is cheaper. Both branches depend only on (k, p), never
	// on worker count, so determinism is preserved.
	if p > 0.25 || len(m.W) < 16 {
		for j := range m.W {
			u := m.rng.Int63n(m.N)
			if u >= r.N {
				continue
			}
			if buffered {
				m.W[j] = r.buf[u] // u is uniform on [0, r.N) here
			} else {
				m.W[j] = r.W[j]
			}
		}
		return
	}
	j := -1
	for {
		j += int(m.rng.Geometric(p))
		if j >= len(m.W) {
			return
		}
		if buffered {
			m.W[j] = r.pick(&m.rng)
		} else {
			m.W[j] = r.W[j]
		}
	}
}

// Has reports whether any item has been absorbed.
func (m *ResKMerger) Has() bool { return m.N > 0 }
