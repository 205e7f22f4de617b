package stream

import (
	"fmt"
	"io"
	"os"
	"strings"
)

const (
	// BexExt is the file extension OpenAuto dispatches on.
	BexExt = ".bex"
	// bex1Magic opens the retired flat .bex v1 format (fixed int32 pairs).
	// It is recognized only so OpenAuto can refuse such a file with a clear
	// diagnosis instead of parsing binary records as text.
	bex1Magic = "BEX1"
)

// FileBacked is a file-backed edge stream that must eventually be closed.
type FileBacked interface {
	Stream
	Close() error
}

// OpenAuto opens an edge file as whatever format it actually is: a
// directory (or the .bexd extension) gets the sharded multi-file reader,
// files whose magic is "BEX2" get the block-indexed v2 reader, and anything
// else the text parser. Dispatch is by content first and extension second,
// so a v2 file opens correctly whatever it is named. A retired v1 file
// ("BEX1" magic) is refused with ErrCorruptHeader. The text path defers
// errors to the first Reset, matching OpenFile. The v2 readers serve repeat
// block reads from the decoded-block cache (see SetDecodeCacheBudget).
func OpenAuto(path string) (FileBacked, error) {
	lower := strings.ToLower(path)
	if info, err := os.Stat(path); (err == nil && info.IsDir()) || strings.HasSuffix(lower, BexdExt) {
		return fileBacked(OpenBexd(path))
	}
	switch magic := sniffMagic(path); {
	case magic == bex1Magic:
		return nil, fmt.Errorf("stream: %s: .bex v1 files are no longer read; regenerate the file from its text source with graphgen -convert: %w",
			path, ErrCorruptHeader)
	case magic == bex2Magic || strings.HasSuffix(lower, BexExt):
		// The .bex extension with an unrecognized magic goes to the v2
		// reader too, so it reports the corrupt-header diagnosis instead
		// of the text parser reading binary as edges.
		return fileBacked(OpenBex2(path))
	}
	return OpenFile(path), nil
}

// OpenOptions has no fields: the process budget (SetDecodeCacheBudget) is
// the decoded-block cache's only setting.
//
// Deprecated: use OpenAuto.
type OpenOptions struct{}

// OpenAutoOpts is OpenAuto.
//
// Deprecated: use OpenAuto.
func OpenAutoOpts(path string, _ OpenOptions) (FileBacked, error) { return OpenAuto(path) }

// fileBacked converts a concrete reader and its open error to OpenAutoOpts'
// result without wrapping a nil pointer in a non-nil interface.
func fileBacked[S FileBacked](s S, err error) (FileBacked, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// sniffMagic reads the first four bytes of path; it returns "" when the file
// cannot be read or is shorter than a magic (both are the text parser's
// problem to diagnose).
func sniffMagic(path string) string {
	file, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer file.Close()
	var magic [4]byte
	if _, err := io.ReadFull(file, magic[:]); err != nil {
		return ""
	}
	return string(magic[:])
}
