package stream

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/graph"
)

// resetDecodeEngine sets the decoded-block cache budget (the cache's only
// setting) for one test and restores the default budget and kernel
// afterwards. The cache counters are lifetime-global, so tests measure
// deltas via statsDelta rather than absolutes.
func resetDecodeEngine(t *testing.T, budget int64) {
	t.Helper()
	SetDecodeCacheBudget(budget)
	t.Cleanup(func() {
		SetSIMDDecode(true)
		SetDecodeCacheBudget(DefaultDecodeCacheBytes)
	})
}

// statsDelta runs fn and returns the change in the cache counters.
func statsDelta(fn func()) DecodeCacheStats {
	before := ReadDecodeCacheStats()
	fn()
	after := ReadDecodeCacheStats()
	return DecodeCacheStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		Bytes:     after.Bytes,
		Entries:   after.Entries,
	}
}

// cacheOpeners enumerates the v2-family backends, which all read through
// the decoded-block cache.
var cacheOpeners = []struct {
	name  string
	write func(t *testing.T, dir string, edges []graph.Edge) string
}{
	{"bex2", writeV2File},
	{"bexd", writeBexdDir},
}

func writeV2File(t *testing.T, dir string, edges []graph.Edge) string {
	t.Helper()
	path := filepath.Join(dir, "g.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeBexdDir(t *testing.T, dir string, edges []graph.Edge) string {
	t.Helper()
	path := filepath.Join(dir, "g.bexd")
	if _, err := WriteBexd(path, FromEdges(edges), 64, 300); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDecodeCacheServesRepeatScans pins the cache's reason to exist: the
// second pass over a v2-family stream is served from decoded blocks (hits,
// no new misses) and returns bit-identical edges. With a zero budget a
// stream never touches the cache at all.
func TestDecodeCacheServesRepeatScans(t *testing.T) {
	edges := bex2TestEdges(1000)
	for _, tc := range cacheOpeners {
		t.Run(tc.name, func(t *testing.T) {
			resetDecodeEngine(t, DefaultDecodeCacheBytes)
			path := tc.write(t, t.TempDir(), edges)

			s, err := OpenAuto(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			cold := statsDelta(func() { sameEdges(t, collectAll(t, s), edges, "cold pass") })
			if cold.Misses == 0 {
				t.Fatalf("cold pass recorded no misses: %+v", cold)
			}
			warm := statsDelta(func() { sameEdges(t, collectAll(t, s), edges, "warm pass") })
			if warm.Hits == 0 || warm.Misses != 0 {
				t.Fatalf("warm pass not served from cache: %+v", warm)
			}
			if warm.Entries == 0 || warm.Bytes == 0 {
				t.Fatalf("no residency after warm pass: %+v", warm)
			}

			// A second reader of the same file shares the decoded blocks.
			s2, err := OpenAuto(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			shared := statsDelta(func() { sameEdges(t, collectAll(t, s2), edges, "shared pass") })
			if shared.Hits == 0 || shared.Misses != 0 {
				t.Fatalf("second reader not served from cache: %+v", shared)
			}

			// A zero budget bypasses the cache entirely: no hits, no misses.
			SetDecodeCacheBudget(0)
			plain, err := OpenAuto(path)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			off := statsDelta(func() { sameEdges(t, collectAll(t, plain), edges, "uncached pass") })
			if off.Hits != 0 || off.Misses != 0 {
				t.Fatalf("uncached stream touched the cache: %+v", off)
			}
		})
	}
}

// TestDecodeCacheBudgetEviction pins the byte budget: two streams that each
// fit the budget but not together evict each other's blocks, residency stays
// within the budget once pins drop, and both still return exact edges.
func TestDecodeCacheBudgetEviction(t *testing.T) {
	edges := bex2TestEdges(600) // 9600 decoded bytes per file
	resetDecodeEngine(t, 12000) // room for one file, not two
	a := writeV2File(t, t.TempDir(), edges)
	b := writeV2File(t, t.TempDir(), edges)

	d := statsDelta(func() {
		for _, path := range []string{a, b, a} {
			s, err := OpenAuto(path)
			if err != nil {
				t.Fatal(err)
			}
			sameEdges(t, collectAll(t, s), edges, "alternating pass")
			s.Close()
		}
	})
	if d.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", 12000, d)
	}
	if d.Bytes > 12000 {
		t.Fatalf("residency %d bytes exceeds budget with no pins held: %+v", d.Bytes, d)
	}
}

// TestDecodeCacheBypassesOversizedStream pins size admission: a stream
// whose decoded size (summed over .bexd parts) exceeds the budget would only
// miss under a cyclic scan, so it decodes into its cursor's scratch buffer
// instead — exact edges on every scan, no inserts, no evictions. A stream
// that fits the same budget gets hits on its second scan.
func TestDecodeCacheBypassesOversizedStream(t *testing.T) {
	const budget = 8000 // a 300-edge .bexd part (4800 B) fits; 2000 edges do not
	edges := bex2TestEdges(2000)
	for _, tc := range cacheOpeners {
		t.Run(tc.name, func(t *testing.T) {
			resetDecodeEngine(t, budget)
			path := tc.write(t, t.TempDir(), edges)
			s, err := OpenAuto(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			before := ReadDecodeCacheStats()
			d := statsDelta(func() {
				for pass := 0; pass < 2; pass++ {
					sameEdges(t, collectAll(t, s), edges, "oversized pass")
				}
			})
			if d.Hits != 0 || d.Misses != 0 || d.Evictions != 0 || d.Entries != before.Entries {
				t.Fatalf("oversized stream used the cache: %+v (before %+v)", d, before)
			}

			small := edges[:400] // 6400 B: fits
			fits, err := OpenAuto(tc.write(t, t.TempDir(), small))
			if err != nil {
				t.Fatal(err)
			}
			defer fits.Close()
			sameEdges(t, collectAll(t, fits), small, "cold pass")
			warm := statsDelta(func() { sameEdges(t, collectAll(t, fits), small, "warm pass") })
			if warm.Hits == 0 || warm.Misses != 0 {
				t.Fatalf("stream within budget not served from cache: %+v", warm)
			}
		})
	}
}

// TestDecodeCacheDisabled pins the off switch: with a zero budget nothing is
// ever resident and edges are still exact.
func TestDecodeCacheDisabled(t *testing.T) {
	edges := bex2TestEdges(500)
	resetDecodeEngine(t, 0)
	path := writeV2File(t, t.TempDir(), edges)

	s, err := OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pass := 0; pass < 2; pass++ {
		sameEdges(t, collectAll(t, s), edges, "disabled-cache pass")
	}
	if st := ReadDecodeCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("disabled cache holds residency: %+v", st)
	}
}

// TestDecodeCacheInvalidatedByRewrite pins generation invalidation: the key
// embeds (path, size, mtime), so a rewritten file misses the old generation
// and a reopened stream serves the new edges, never the stale decode.
func TestDecodeCacheInvalidatedByRewrite(t *testing.T) {
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	dir := t.TempDir()
	old := bex2TestEdges(600)
	path := writeV2File(t, dir, old)

	s, err := OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, collectAll(t, s), old, "first generation")
	s.Close()

	// Rewrite in place with different content (different size too).
	next := bex2TestEdges(900)
	writeV2File(t, dir, next)

	s2, err := OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d := statsDelta(func() { sameEdges(t, collectAll(t, s2), next, "second generation") })
	if d.Misses == 0 {
		t.Fatalf("rewritten file served from the stale generation: %+v", d)
	}
}

// TestDecodeCacheStaleRewriteSameSizeAndMtime pins the block CRC in the
// cache key: a rewrite that keeps the byte size and restores the old mtime
// has the same stat identity, and a hit never reads the file, so only the
// footer CRC tells the generations apart.
func TestDecodeCacheStaleRewriteSameSizeAndMtime(t *testing.T) {
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	dir := t.TempDir()
	old := []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 1}}
	path := writeV2File(t, dir, old)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, collectAll(t, s), old, "first generation")
	s.Close()

	next := []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	writeV2File(t, dir, next)
	if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	if again, err := os.Stat(path); err != nil || again.Size() != info.Size() || !again.ModTime().Equal(info.ModTime()) {
		t.Fatalf("rewrite changed the stat identity (%v, %v); the test needs it unchanged", again, err)
	}

	s2, err := OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameEdges(t, collectAll(t, s2), next, "rewritten generation")
}

// TestDecodeCachePreservesShardBoundaries pins the subtlest coherence rule:
// a cached block is sliced by stream position exactly like a fresh decode,
// so range streams — the shard mechanism — see identical edges whether their
// blocks come from the cache or the decoder, at any split.
func TestDecodeCachePreservesShardBoundaries(t *testing.T) {
	edges := bex2TestEdges(1000)
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	path := writeV2File(t, t.TempDir(), edges)

	s, err := OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sameEdges(t, collectAll(t, s), edges, "warmup") // populate the cache

	rs := s.(RangeStreamer)
	for _, lo := range []int{0, 1, 63, 64, 65, 500, 999} {
		for _, hi := range []int{lo, lo + 1, lo + 64, 1000} {
			if hi > 1000 || hi < lo {
				continue
			}
			sub, ok := rs.RangeStream(lo, hi)
			if !ok {
				t.Fatalf("RangeStream(%d,%d) refused", lo, hi)
			}
			got, err := Collect(sub)
			if err != nil {
				t.Fatalf("range [%d,%d): %v", lo, hi, err)
			}
			sameEdges(t, got, edges[lo:hi], "cached range")
		}
	}
}

// TestBex2SIMDScalarStreamEquivalence pins the kernels against each other at
// the stream level: every v2-family backend returns bit-identical edges with
// the vectorized decoder on and off, cache budget default and 0.
func TestBex2SIMDScalarStreamEquivalence(t *testing.T) {
	if !SIMDDecodeEnabled() {
		t.Skip("no vectorized kernel on this architecture")
	}
	edges := bex2TestEdges(3000)
	for _, tc := range cacheOpeners {
		t.Run(tc.name, func(t *testing.T) {
			resetDecodeEngine(t, DefaultDecodeCacheBytes)
			path := tc.write(t, t.TempDir(), edges)
			for _, budget := range []int64{0, DefaultDecodeCacheBytes} {
				SetDecodeCacheBudget(budget)
				for _, simd := range []bool{true, false} {
					SetSIMDDecode(simd)
					s, err := OpenAuto(path)
					if err != nil {
						t.Fatal(err)
					}
					sameEdges(t, collectAll(t, s), edges, DecodeKernelName())
					s.Close()
				}
			}
		})
	}
}

// TestBex2CachedReadsStillVerifyCRCs pins the cached read path against
// silent corruption: CRCs are verified lazily per block on first touch, so a
// bit flip inside a block payload surfaces as ErrCorruptBlock on the read —
// through the cache — and the damaged block is never inserted into it.
func TestBex2CachedReadsStillVerifyCRCs(t *testing.T) {
	edges := bex2TestEdges(1000)
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	dir := t.TempDir()
	good := writeV2File(t, dir, edges)
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenBex2(good)
	if err != nil {
		t.Fatal(err)
	}
	off := fs.cur.meta.blocks[3].off + 5
	fs.Close()
	path := corrupt(t, dir, "flipped.bex", raw, func(b []byte) []byte {
		b[off] ^= 0x40
		return b
	})

	s, err := OpenAuto(path)
	if err != nil {
		t.Fatalf("block corruption must not fail at open: %v", err)
	}
	defer s.Close()
	if _, err := Collect(s); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("cached pass error %v, want ErrCorruptBlock", err)
	}
	// The failed pass cached the verified blocks before the damage but must
	// not have inserted the damaged block: a re-read still fails.
	if _, err := Collect(s); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("re-read after caching: %v, want ErrCorruptBlock", err)
	}
	// Ranges that avoid the damage are served (now partly from cache) exactly.
	clean, _ := s.(RangeStreamer).RangeStream(0, 192)
	got, err := Collect(clean)
	if err != nil {
		t.Fatalf("range over clean blocks: %v", err)
	}
	sameEdges(t, got, edges[:192], "clean range through the cache")
}

// TestDecodeCachePinnedEntriesSurviveEviction pins the refcount contract: an
// entry a cursor is actively serving from survives a budget collapse, and
// the budget recovers once the cursor releases it.
func TestDecodeCachePinnedEntriesSurviveEviction(t *testing.T) {
	edges := bex2TestEdges(500)
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	path := writeV2File(t, t.TempDir(), edges)

	s, err := OpenBex2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	// Pull one batch so the cursor holds a pin on the first block's entry.
	if _, err := s.NextBatch(nil); err != nil {
		t.Fatal(err)
	}
	SetDecodeCacheBudget(1) // collapse: everything unpinned must go
	st := ReadDecodeCacheStats()
	if st.Entries != 1 {
		t.Fatalf("pinned entry count = %d after collapse, want 1", st.Entries)
	}
	// A fresh pass (Collect resets, which releases the pin) still reads
	// exactly while the cache thrashes at a 1-byte budget.
	sameEdges(t, collectAll(t, s), edges, "pass under collapsed budget")
	if st := ReadDecodeCacheStats(); st.Entries > 1 {
		t.Fatalf("collapsed cache retains %d entries", st.Entries)
	}
}
