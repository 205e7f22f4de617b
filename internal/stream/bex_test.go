package stream

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/graph"
)

// hideLen masks a stream's length so WriteBex2 must take the
// patch-afterwards path that relies on the writer being seekable.
type hideLen struct{ Stream }

func (hideLen) Len() (int, bool) { return 0, false }

// TestWriteBexAtNonzeroOffset pins the length-prefix patch to the header's
// own base offset: a seekable writer positioned mid-file (a .bex section
// appended after other content) must not have its first bytes overwritten.
func TestWriteBexAtNonzeroOffset(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	path := filepath.Join(t.TempDir(), "offset.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	prefix := []byte("CONTAINER-HEADER")
	if _, err := f.Write(prefix); err != nil {
		t.Fatal(err)
	}
	n, err := WriteBex2(f, hideLen{FromEdges(edges)}, 0)
	if err != nil || n != len(edges) {
		t.Fatalf("WriteBex2 = %d, %v", n, err)
	}
	// The writer must be left at the end of the .bex section.
	end, err := f.Seek(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := f.Stat(); err != nil || end != info.Size() {
		t.Fatalf("writer position = %d, want the section end (%v)", end, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:len(prefix)]) != string(prefix) {
		t.Fatalf("prefix corrupted by the length patch: %q", raw[:len(prefix)])
	}
	section := raw[len(prefix):]
	if string(section[:4]) != bex2Magic {
		t.Fatalf("no magic at the base offset: %q", section[:4])
	}
	if got := binary.LittleEndian.Uint64(section[8:]); got != uint64(len(edges)) {
		t.Fatalf("patched edge count = %d, want %d", got, len(edges))
	}
}

// TestOpenBexValidatesFileSize pins the open-time size check through
// OpenAuto: a truncated file, a header that lies about its edge count, or
// trailing bytes fail at open, not with a mid-pass truncation error on edge
// k.
func TestOpenBexValidatesFileSize(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bex")
	if _, err := WriteBex2File(good, FromEdges(edges), 0); err != nil {
		t.Fatal(err)
	}
	if bs, err := OpenAuto(good); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	} else {
		bs.Close()
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }, ErrTruncated},
		{"lying", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], uint64(len(edges)+7))
			return b
		}, ErrCorruptHeader},
		{"trailing", func(b []byte) []byte { return append(b, 0xAA) }, ErrTruncated},
	} {
		path := corrupt(t, dir, tc.name+".bex", raw, tc.mutate)
		if _, err := OpenAuto(path); !errors.Is(err, tc.want) {
			t.Fatalf("%s: open error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestWriteBexNonSeekableStillNeedsLength documents the contract for
// non-seekable writers: the header's count cannot be patched, so the stream
// must know its length up front.
func TestWriteBexNonSeekableStillNeedsLength(t *testing.T) {
	var sink writerOnly
	if _, err := WriteBex2(&sink, hideLen{FromEdges([]graph.Edge{{U: 0, V: 1}})}, 0); err == nil {
		t.Fatal("unknown length + non-seekable writer must error")
	}
	if n, err := WriteBex2(&sink, FromEdges([]graph.Edge{{U: 0, V: 1}}), 0); err != nil || n != 1 {
		t.Fatalf("known length + non-seekable writer: %d, %v", n, err)
	}
}

type writerOnly struct{ n int }

func (w *writerOnly) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
