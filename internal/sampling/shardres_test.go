package sampling

import (
	"fmt"
	"math"
	"testing"
)

func TestMixSeedDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for pass := uint64(0); pass < 4; pass++ {
		for inst := uint64(0); inst < 32; inst++ {
			for shard := uint64(0); shard < 8; shard++ {
				s := MixSeed(7, pass, inst, shard)
				if seen[s] {
					t.Fatalf("MixSeed collision at (%d,%d,%d)", pass, inst, shard)
				}
				seen[s] = true
			}
		}
	}
	if MixSeed(7, 1, 2) != MixSeed(7, 1, 2) {
		t.Fatal("MixSeed not deterministic")
	}
	if MixSeed(7, 1, 2) == MixSeed(8, 1, 2) {
		t.Fatal("MixSeed ignores the base seed")
	}
}

// TestRes1Uniform checks that the skip-ahead reservoir selects each stream
// position with roughly equal frequency.
func TestRes1Uniform(t *testing.T) {
	const n, trials = 20, 40000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		var r Res1
		r.Init(MixSeed(3, uint64(trial)))
		for v := 0; v < n; v++ {
			r.Offer(v)
		}
		if r.N != n {
			t.Fatalf("N = %d, want %d", r.N, n)
		}
		counts[r.W]++
	}
	want := float64(trials) / float64(n)
	for v, c := range counts {
		if float64(c) < 0.85*want || float64(c) > 1.15*want {
			t.Errorf("position %d selected %d times, want ~%.0f", v, c, want)
		}
	}
}

// TestRes1MergeUniform checks that merging per-shard reservoirs in shard
// order yields a uniform sample over the concatenated stream, including with
// empty and uneven shards.
func TestRes1MergeUniform(t *testing.T) {
	const trials = 40000
	bounds := []int{0, 3, 3, 10, 11, 20} // shard ranges over positions [0,20)
	n := bounds[len(bounds)-1]
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		var m Res1Merger
		m.Init(MixSeed(9, uint64(trial)))
		for s := 0; s+1 < len(bounds); s++ {
			var r Res1
			r.Init(MixSeed(5, uint64(trial), uint64(s)))
			for v := bounds[s]; v < bounds[s+1]; v++ {
				r.Offer(v)
			}
			m.Absorb(&r)
		}
		if !m.Has() || m.N != int64(n) {
			t.Fatalf("merger N = %d, want %d", m.N, n)
		}
		counts[m.W]++
	}
	want := float64(trials) / float64(n)
	for v, c := range counts {
		if float64(c) < 0.85*want || float64(c) > 1.15*want {
			t.Errorf("position %d selected %d times, want ~%.0f", v, c, want)
		}
	}
}

// TestResKMergeUniform checks the bank variant: every sub-reservoir of the
// merged bank is a uniform sample of the concatenated stream.
func TestResKMergeUniform(t *testing.T) {
	const k, trials = 3, 20000
	bounds := []int{0, 1, 16, 16, 24}
	n := bounds[len(bounds)-1]
	counts := make([][]int, k)
	for j := range counts {
		counts[j] = make([]int, n)
	}
	for trial := 0; trial < trials; trial++ {
		var m ResKMerger
		m.Init(MixSeed(11, uint64(trial)), k)
		for s := 0; s+1 < len(bounds); s++ {
			var r ResK
			r.Init(MixSeed(13, uint64(trial), uint64(s)), k)
			for v := bounds[s]; v < bounds[s+1]; v++ {
				r.Offer(v)
			}
			m.Absorb(&r)
		}
		for j := 0; j < k; j++ {
			counts[j][m.W[j]]++
		}
	}
	want := float64(trials) / float64(n)
	for j := range counts {
		for v, c := range counts[j] {
			if float64(c) < 0.8*want || float64(c) > 1.2*want {
				t.Errorf("sub-reservoir %d position %d selected %d times, want ~%.0f", j, v, c, want)
			}
		}
	}
}

// mergeBanks runs one trial of the sharded bank pipeline the estimators use:
// positions [0, bounds[len-1]) are split into shards at bounds, each shard
// feeds a pooled bank (Init, Offer, Drop), and the banks are absorbed in shard
// order into m.
func mergeBanks(m *ResKMerger, bank *ResK, trial uint64, k int, bounds []int) {
	m.Init(MixSeed(21, trial), k)
	for s := 0; s+1 < len(bounds); s++ {
		bank.Init(MixSeed(23, trial, uint64(s)), k)
		for v := bounds[s]; v < bounds[s+1]; v++ {
			bank.Offer(v)
		}
		m.Absorb(bank)
		bank.Drop()
	}
}

// chiSquare returns the Pearson statistic of counts against a uniform
// expectation and its degrees of freedom.
func chiSquare(counts []int, trials int) (stat float64, df int) {
	want := float64(trials) / float64(len(counts))
	for _, c := range counts {
		d := float64(c) - want
		stat += d * d / want
	}
	return stat, len(counts) - 1
}

// TestResKMergeLaw checks the joint law of the merged bank: every
// sub-reservoir is uniform over the concatenated stream and the
// sub-reservoirs are independent of each other. Per layout it sums the
// chi-square statistics of the k per-slot marginals and of the joint cells
// (W[a], W[b]) of k/2 disjoint slot pairs; each sum must lie within five
// standard deviations (sqrt(2·df)) of its degrees of freedom. The layouts
// cover every way a bank's samples reach the merger: deferred picks from a
// buffer of single items (adopted without a draw, then absorbed on the plain
// and the geometric path), a shard that materializes exactly at and just past
// resKPlainLimit, a buffered bank absorbed on the geometric path (p <= 0.25),
// and a buffered bank adopted as the first shard. Seeds are fixed, so the
// test is deterministic.
func TestResKMergeLaw(t *testing.T) {
	const k = 16
	single := make([]int, 13)
	for i := range single {
		single[i] = i
	}
	cases := []struct {
		name   string
		bounds []int
	}{
		{"single-item shards", single},
		{"materialize at 33", []int{0, 33}},
		{"materialize at 35, buffered tail", []int{0, 35, 48}},
		{"buffered tail on geometric path", []int{0, 40, 48}},
		{"adopt buffered", []int{0, 20, 48}},
	}
	for _, tc := range cases {
		n := tc.bounds[len(tc.bounds)-1]
		trials := max(40*n*n, 20000)
		marginal := make([][]int, k)
		for j := range marginal {
			marginal[j] = make([]int, n)
		}
		joint := make([][]int, k/2)
		for i := range joint {
			joint[i] = make([]int, n*n)
		}
		var m ResKMerger
		var bank ResK
		for trial := 0; trial < trials; trial++ {
			mergeBanks(&m, &bank, uint64(trial), k, tc.bounds)
			if m.N != int64(n) {
				t.Fatalf("%s: merger N = %d, want %d", tc.name, m.N, n)
			}
			for j, w := range m.W {
				if w < 0 || w >= n {
					t.Fatalf("%s: sub-reservoir %d holds %d, outside [0,%d)", tc.name, j, w, n)
				}
				marginal[j][w]++
			}
			for i := range joint {
				joint[i][m.W[2*i]*n+m.W[2*i+1]]++
			}
		}
		check := func(what string, tables [][]int) {
			var stat float64
			var df int
			for _, counts := range tables {
				s, d := chiSquare(counts, trials)
				stat += s
				df += d
			}
			sd := math.Sqrt(2 * float64(df))
			t.Logf("%s: %s chi-square %.0f at df %d (%d trials)", tc.name, what, stat, df, trials)
			if math.Abs(stat-float64(df)) > 5*sd {
				t.Errorf("%s: %s chi-square %.0f, want %d ± %.0f", tc.name, what, stat, df, 5*sd)
			}
		}
		check("marginal", marginal)
		check("joint", joint)
	}
}

// TestResKReuse checks that Drop and Init recycle a pooled bank without
// leaking state between uses — for a bank whose samples were still deferred
// (N <= resKPlainLimit) and for one that materialized — and that a merger
// which adopted a bank's slices is not disturbed by the bank's later reuse.
func TestResKReuse(t *testing.T) {
	var r ResK
	var first ResKMerger
	r.Init(1, 5)
	for v := 0; v < 100; v++ {
		r.Offer(v)
	}
	first.Init(2, 5)
	first.Absorb(&r)
	kept := append([]int(nil), first.W...)

	uses := []struct{ k, lo, hi int }{
		{3, 1000, 1010}, // deferred after a materialized use
		{4, 2000, 2040}, // materialized after a deferred use
		{6, 3000, 3001}, // a single deferred item
		{5, 4000, 4100}, // materialized again
	}
	for i, u := range uses {
		r.Drop()
		if r.Ready() {
			t.Fatal("dropped bank still reports Ready")
		}
		r.Init(uint64(10+i), u.k)
		if r.N != 0 || r.K() != u.k {
			t.Fatalf("use %d: reused bank not reset: N=%d k=%d", i, r.N, r.K())
		}
		for v := u.lo; v < u.hi; v++ {
			r.Offer(v)
		}
		var m ResKMerger
		m.Init(uint64(20+i), u.k)
		m.Absorb(&r)
		if m.N != int64(u.hi-u.lo) || len(m.W) != u.k {
			t.Fatalf("use %d: merger N=%d len(W)=%d, want %d and %d", i, m.N, len(m.W), u.hi-u.lo, u.k)
		}
		for j, w := range m.W {
			if w < u.lo || w >= u.hi {
				t.Fatalf("use %d: sub-reservoir %d holds stale sample %d, want one of [%d,%d)", i, j, w, u.lo, u.hi)
			}
		}
	}
	for j, w := range first.W {
		if w != kept[j] {
			t.Fatalf("bank reuse overwrote an adopted merger sample: slot %d %d -> %d", j, kept[j], w)
		}
	}
}

// BenchmarkResKBank times one light endpoint's bank sampling in a sharded
// pass: a k≈600-sample bank filled with N neighbors in each of 16 shards and
// absorbed into the merger in shard order, for per-shard N of 2, 16 and 40.
func BenchmarkResKBank(b *testing.B) {
	const k, shards = 600, 16
	for _, n := range []int{2, 16, 40} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var m ResKMerger
			var bank ResK
			for i := 0; i < b.N; i++ {
				m.Init(MixSeed(1, uint64(i)), k)
				for s := 0; s < shards; s++ {
					bank.Init(MixSeed(2, uint64(i), uint64(s)), k)
					for v := 0; v < n; v++ {
						bank.Offer(s*n + v)
					}
					m.Absorb(&bank)
					bank.Drop()
				}
			}
		})
	}
}
