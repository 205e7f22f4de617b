package stream

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"degentri/internal/graph"
)

// bex2TestEdges builds m edges with the mixed small/large deltas a
// canonicalized graph produces, plus a few adversarial jumps that force
// multi-byte varints and negative deltas.
func bex2TestEdges(m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		switch i % 7 {
		case 0:
			edges[i] = graph.Edge{U: i % 1200, V: (i % 1200) + 1}
		case 3:
			edges[i] = graph.Edge{U: 1<<30 - i%97, V: i % 13}
		default:
			edges[i] = graph.Edge{U: i % 977, V: 977 + i%991}
		}
	}
	return edges
}

// collectAll runs one full pass and returns every edge.
func collectAll(t *testing.T, s Stream) []graph.Edge {
	t.Helper()
	got, err := Collect(s)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return got
}

func sameEdges(t *testing.T, got, want []graph.Edge, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestBex2RoundTrip pins the v2 codec: the reader returns the written edges
// exactly, across block sizes that exercise partial final blocks,
// single-edge blocks, and an empty stream, over repeated passes.
func TestBex2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name       string
		m          int
		blockEdges int
	}{
		{"empty", 0, 64},
		{"one-edge", 1, 64},
		{"one-block", 50, 64},
		{"exact-blocks", 256, 64},
		{"partial-tail", 1000, 64},
		{"tiny-blocks", 300, 1},
		{"default-blocks", 5000, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges := bex2TestEdges(tc.m)
			path := filepath.Join(t.TempDir(), "g.bex")
			n, err := WriteBex2File(path, FromEdges(edges), tc.blockEdges)
			if err != nil || n != tc.m {
				t.Fatalf("WriteBex2File = %d, %v", n, err)
			}
			s, err := OpenBex2(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if m, known := s.Len(); !known || m != tc.m {
				t.Fatalf("Len = %d, %v", m, known)
			}
			for pass := 0; pass < 2; pass++ {
				sameEdges(t, collectAll(t, s), edges, "pass")
			}
			// Close then Reset must work, matching every file-backed stream.
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			sameEdges(t, collectAll(t, s), edges, "after close")
			s.Close()
		})
	}
}

// TestBex2NextMatchesNextBatch pins the two read paths against each other.
func TestBex2NextMatchesNextBatch(t *testing.T) {
	edges := bex2TestEdges(500)
	path := filepath.Join(t.TempDir(), "g.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	s, err := OpenBex2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	for i, want := range edges {
		e, err := s.Next()
		if err != nil {
			t.Fatalf("Next at %d: %v", i, err)
		}
		if e != want {
			t.Fatalf("Next %d = %v, want %v", i, e, want)
		}
	}
	if _, err := s.Next(); err != ErrEndOfPass {
		t.Fatalf("after last edge: %v", err)
	}
}

// TestBex2SmallerThanV1 pins the compression claim the bench gate tracks:
// on realistic (small-delta) edge streams the v2 encoding is strictly
// smaller than the retired v1 layout (a 16-byte header plus a flat 8 bytes
// per edge).
func TestBex2SmallerThanV1(t *testing.T) {
	edges := benchEdges(1 << 14)
	v2 := filepath.Join(t.TempDir(), "g2.bex")
	if _, err := WriteBex2File(v2, FromEdges(edges), 0); err != nil {
		t.Fatal(err)
	}
	s2, err := os.Stat(v2)
	if err != nil {
		t.Fatal(err)
	}
	if v1 := int64(16 + 8*len(edges)); s2.Size() >= v1 {
		t.Fatalf("v2 (%d bytes) not smaller than v1 (%d bytes)", s2.Size(), v1)
	}
}

// TestBex2WritePatchesUnknownLength pins the header patch path: a seekable
// writer with an unknown stream length gets the count patched afterwards.
func TestBex2WritePatchesUnknownLength(t *testing.T) {
	edges := bex2TestEdges(200)
	path := filepath.Join(t.TempDir(), "g.bex")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteBex2(f, hideLen{FromEdges(edges)}, 64)
	if err != nil || n != len(edges) {
		t.Fatalf("WriteBex2 = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenBex2(path)
	if err != nil {
		t.Fatalf("patched file rejected: %v", err)
	}
	defer s.Close()
	sameEdges(t, collectAll(t, s), edges, "patched")

	var sink writerOnly
	if _, err := WriteBex2(&sink, hideLen{FromEdges(edges)}, 64); err == nil {
		t.Fatal("unknown length + non-seekable writer must error")
	}
}

// TestBex2RangeStream pins range semantics: every [lo, hi) window — aligned,
// straddling block boundaries, within one block, empty — yields exactly the
// window's edges.
func TestBex2RangeStream(t *testing.T) {
	edges := bex2TestEdges(700)
	path := filepath.Join(t.TempDir(), "g.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenBex2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for _, win := range [][2]int{
		{0, 0}, {0, 700}, {0, 64}, {64, 128}, {10, 20}, {60, 70},
		{63, 65}, {640, 700}, {699, 700}, {0, 1}, {130, 530},
	} {
		sub, ok := rs.RangeStream(win[0], win[1])
		if !ok {
			t.Fatalf("RangeStream(%d, %d) unavailable", win[0], win[1])
		}
		sameEdges(t, collectAll(t, sub), edges[win[0]:win[1]], "range")
		if c, ok := sub.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	if _, ok := rs.RangeStream(0, 701); ok {
		t.Fatal("out-of-bounds range accepted")
	}
}

// TestBex2NoFirstScanIndexBuild is the acceptance pin for the tentpole: a
// fresh v2 file serves shard ranges from byte zero — RangeStream is
// available before any pass, and a sharded multi-worker pass costs exactly
// one logical Reset with every edge read exactly once. The text path, by
// contrast, needs a first full scan to build its position→offset index; v2
// has no such path by construction.
func TestBex2NoFirstScanIndexBuild(t *testing.T) {
	edges := bex2TestEdges(40_000)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		open func() (FileBacked, error)
	}{
		{"bex2", func() (FileBacked, error) { return OpenBex2(filepath.Join(dir, "g.bex")) }},
		{"bexd", func() (FileBacked, error) { return OpenBexd(filepath.Join(dir, "g.bexd")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "bexd" {
				if _, err := WriteBexd(filepath.Join(dir, "g.bexd"), FromEdges(edges), 512, 10_000); err != nil {
					t.Fatal(err)
				}
			} else if _, err := WriteBex2File(filepath.Join(dir, "g.bex"), FromEdges(edges), 512); err != nil {
				t.Fatal(err)
			}
			fb, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer fb.Close()
			// Range access must work on a freshly opened stream, before any pass.
			rs, ok := fb.(RangeStreamer)
			if !ok {
				t.Fatal("stream is not a RangeStreamer")
			}
			if _, ok := rs.RangeStream(0, 0); !ok {
				t.Fatal("RangeStream unavailable before the first pass")
			}
			pc := NewPassCounter(fb)
			if _, err := ShardedForEachBatch(pc, len(edges), 4,
				func(int, []graph.Edge) error { return nil },
				func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if got := pc.Passes(); got != 1 {
				t.Fatalf("sharded pass cost %d logical passes, want 1 (no index-build scan)", got)
			}
			if got := pc.EdgesRead(); got != int64(len(edges)) {
				t.Fatalf("sharded pass read %d edges, want %d (no extra scan)", got, len(edges))
			}
		})
	}
}

// corrupt writes a mutated copy of raw and returns its path.
func corrupt(t *testing.T, dir, name string, raw []byte, mutate func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenBex2ValidatesContainer is the container corruption suite: every
// way the metadata can lie — truncation, resize, forged counts, footer
// damage, a foreign or retired magic — fails at OpenBex2 and at OpenAuto
// with the right sentinel, never as a wrong answer, a mid-pass surprise, or
// a text-parser file:line error (the text path opens anything and fails
// only at Reset, so an error from OpenAuto itself proves it was not taken).
func TestOpenBex2ValidatesContainer(t *testing.T) {
	edges := bex2TestEdges(1000)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bex")
	if _, err := WriteBex2File(good, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
		// auto is a substring OpenAuto's diagnosis must carry ("" = any).
		auto string
	}{
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrCorruptHeader, "not a .bex v2 file"},
		{"garbage-magic", func(b []byte) []byte { copy(b, "\x00\xffZ?"); return b }, ErrCorruptHeader, "not a .bex v2 file"},
		// A retired v1 file is refused by content, under any name.
		{"v1-magic", func(b []byte) []byte { copy(b, "BEX1"); return b }, ErrCorruptHeader, "v1 files are no longer read"},
		{"v1-header-only", func(b []byte) []byte { return append([]byte("BEX1"), make([]byte, 12)...) }, ErrCorruptHeader, "graphgen -convert"},
		{"too-short", func(b []byte) []byte { return b[:40] }, ErrCorruptHeader, ""},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-7] }, ErrTruncated, ""},
		{"truncated-footer", func(b []byte) []byte {
			// Drop one footer record but keep the tail intact: geometry check.
			return append(append([]byte(nil), b[:len(b)-bex2TailSize-bex2FooterRec]...), b[len(b)-bex2TailSize:]...)
		}, ErrCorruptHeader, ""},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xAA) }, ErrTruncated, ""},
		{"lying-edge-count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], uint64(len(edges)+7))
			return b
		}, ErrCorruptHeader, ""},
		{"implausible-block-size", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 0)
			return b
		}, ErrCorruptHeader, ""},
		{"footer-bit-flip", func(b []byte) []byte {
			b[len(b)-bex2TailSize-bex2FooterRec+16] ^= 1 // a block count in the footer
			return b
		}, ErrCorruptHeader, ""},
		{"tail-block-count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-bex2TailSize+8:], 3)
			return b
		}, ErrCorruptHeader, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := corrupt(t, dir, tc.name+".bex", raw, tc.mutate)
			_, err := OpenBex2(path)
			if err == nil {
				t.Fatal("corrupt container accepted at open")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
			paths := []string{path}
			if strings.HasPrefix(tc.name, "v1-") {
				paths = append(paths, corrupt(t, dir, tc.name+".txt", raw, tc.mutate))
			}
			for _, p := range paths {
				fb, err := OpenAuto(p)
				if err == nil {
					fb.Close()
					t.Fatalf("OpenAuto(%s) accepted a corrupt container", filepath.Base(p))
				}
				if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.auto) ||
					!strings.Contains(err.Error(), p) {
					t.Fatalf("OpenAuto(%s) = %v, want %v naming the file and carrying %q",
						filepath.Base(p), err, tc.want, tc.auto)
				}
			}
		})
	}
}

// TestBex2BlockCorruptionFailsDeterministically pins the block-payload
// contract: a bit flip inside a block passes open (the container geometry is
// intact) but fails with ErrCorruptBlock the first time that block is read —
// on the full pass and on a range that touches it — and never decodes to
// silently wrong edges.
func TestBex2BlockCorruptionFailsDeterministically(t *testing.T) {
	edges := bex2TestEdges(1000)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bex")
	if _, err := WriteBex2File(good, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the payload of the fourth block (positions 192-255).
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
	s, err := OpenBex2(path)
	if err != nil {
		t.Fatalf("block corruption must not fail at open (container is intact): %v", err)
	}
	defer s.Close()
	if _, err := Collect(s); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("full pass error %v, want ErrCorruptBlock", err)
	}
	// A range inside the damaged block hits the same error; a range that
	// avoids it still succeeds.
	sub, _ := s.RangeStream(200, 210)
	if _, err := Collect(sub); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("range over damaged block: %v, want ErrCorruptBlock", err)
	}
	clean, _ := s.RangeStream(0, 192)
	got, err := Collect(clean)
	if err != nil {
		t.Fatalf("range over clean blocks: %v", err)
	}
	sameEdges(t, got, edges[:192], "clean range")
}

// TestBexdRoundTrip pins the sharded layout: a multi-part directory round
// trips exactly, over repeated passes and ranges that span part
// boundaries.
func TestBexdRoundTrip(t *testing.T) {
	edges := bex2TestEdges(2500)
	dir := filepath.Join(t.TempDir(), "g.bexd")
	// 700-edge parts: four parts, the last partial; 64-edge blocks inside.
	n, err := WriteBexd(dir, FromEdges(edges), 64, 700)
	if err != nil || n != len(edges) {
		t.Fatalf("WriteBexd = %d, %v", n, err)
	}
	man, err := ReadBexdManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Parts) != 4 || man.Edges != len(edges) {
		t.Fatalf("manifest: %d parts, %d edges", len(man.Parts), man.Edges)
	}
	if err := VerifyBexd(dir); err != nil {
		t.Fatalf("VerifyBexd on a fresh directory: %v", err)
	}
	ms, err := OpenBexd(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, known := ms.Len(); !known || m != len(edges) {
		t.Fatalf("Len = %d, %v", m, known)
	}
	for pass := 0; pass < 2; pass++ {
		sameEdges(t, collectAll(t, ms), edges, "bexd full pass")
	}
	for _, win := range [][2]int{
		{0, 0}, {0, 2500}, {0, 700}, {700, 1400}, {650, 750},
		{699, 701}, {100, 2400}, {2100, 2500}, {1399, 1401},
	} {
		sub, ok := ms.RangeStream(win[0], win[1])
		if !ok {
			t.Fatalf("RangeStream(%d, %d) unavailable", win[0], win[1])
		}
		sameEdges(t, collectAll(t, sub), edges[win[0]:win[1]], "bexd range")
		if c, ok := sub.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	if _, ok := ms.RangeStream(0, 2501); ok {
		t.Fatal("out-of-bounds range accepted")
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	// Close then Reset works, matching every other file-backed stream.
	sameEdges(t, collectAll(t, ms), edges, "bexd after close")
	ms.Close()
}

// TestBexdValidation pins the directory-level failure modes: structural
// damage fails at OpenBexd with ErrCorruptHeader/ErrTruncated, and content
// damage that open deliberately skips is caught by VerifyBexd.
func TestBexdValidation(t *testing.T) {
	edges := bex2TestEdges(900)
	base := t.TempDir()
	write := func(name string) string {
		dir := filepath.Join(base, name)
		if _, err := WriteBexd(dir, FromEdges(edges), 64, 400); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("missing-manifest", func(t *testing.T) {
		dir := write("no-manifest.bexd")
		os.Remove(filepath.Join(dir, "manifest.json"))
		if _, err := OpenBexd(dir); !errors.Is(err, ErrCorruptHeader) {
			t.Fatalf("err = %v, want ErrCorruptHeader", err)
		}
	})
	t.Run("wrong-schema", func(t *testing.T) {
		dir := write("schema.bexd")
		blob, _ := os.ReadFile(filepath.Join(dir, "manifest.json"))
		mutated := strings.Replace(string(blob), `"schema_version": 1`, `"schema_version": 99`, 1)
		if mutated == string(blob) {
			t.Fatal("schema_version not found in manifest")
		}
		os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(mutated), 0o644)
		if _, err := OpenBexd(dir); !errors.Is(err, ErrCorruptHeader) {
			t.Fatalf("err = %v, want ErrCorruptHeader", err)
		}
	})
	t.Run("missing-part", func(t *testing.T) {
		dir := write("missing-part.bexd")
		os.Remove(filepath.Join(dir, "part-0001.bex"))
		if _, err := OpenBexd(dir); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("swapped-part", func(t *testing.T) {
		// A part replaced by a valid .bex v2 file with the wrong edge count:
		// every per-file check passes; the manifest cross-check must catch it.
		dir := write("swapped.bexd")
		if _, err := WriteBex2File(filepath.Join(dir, "part-0001.bex"), FromEdges(edges[:37]), 64); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBexd(dir); !errors.Is(err, ErrCorruptHeader) {
			t.Fatalf("err = %v, want ErrCorruptHeader", err)
		}
	})
	t.Run("verify-catches-content-swap", func(t *testing.T) {
		// Same edge count, different content, internally valid: OpenBexd
		// accepts it (by design — open is cheap), VerifyBexd does not.
		dir := write("content.bexd")
		other := make([]graph.Edge, 400)
		copy(other, edges[400:800])
		other[0] = graph.Edge{U: 9999, V: 9998}
		if _, err := WriteBex2File(filepath.Join(dir, "part-0000.bex"), FromEdges(other), 64); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBexd(dir); err != nil {
			t.Fatalf("structurally valid directory rejected at open: %v", err)
		}
		if err := VerifyBexd(dir); !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("VerifyBexd = %v, want ErrCorruptBlock", err)
		}
	})
	t.Run("refuses-overwrite", func(t *testing.T) {
		dir := write("overwrite.bexd")
		if _, err := WriteBexd(dir, FromEdges(edges), 64, 400); err == nil {
			t.Fatal("WriteBexd over an existing manifest must refuse")
		}
	})
}

// TestOpenAutoDispatch pins content-first dispatch: every format opens as
// itself whatever the file is named, and the Backend strings are stable.
func TestOpenAutoDispatch(t *testing.T) {
	edges := bex2TestEdges(300)
	dir := t.TempDir()

	text := filepath.Join(dir, "g.txt")
	tf, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteEdgeList(tf, FromEdges(edges)); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "g2.bex")
	if _, err := WriteBex2File(v2, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	// A v2 file without the .bex extension: magic sniffing must still win.
	v2odd := filepath.Join(dir, "g2.dat")
	if _, err := WriteBex2File(v2odd, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	bexd := filepath.Join(dir, "g.bexd")
	if _, err := WriteBexd(bexd, FromEdges(edges), 64, 100); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path    string
		backend string
	}{
		{text, BackendText},
		{v2, BackendBex2},
		{v2odd, BackendBex2},
		{bexd, BackendBexd},
	} {
		s, err := OpenAuto(tc.path)
		if err != nil {
			t.Fatalf("OpenAuto(%s): %v", tc.path, err)
		}
		if got := BackendOf(s); got != tc.backend {
			t.Fatalf("BackendOf(%s) = %q, want %q", tc.path, got, tc.backend)
		}
		sameEdges(t, collectAll(t, s), edges, tc.backend)
		s.Close()
	}
	if got := BackendOf(FromEdges(edges)); got != BackendMemory {
		t.Fatalf("BackendOf(memory) = %q", got)
	}
}
