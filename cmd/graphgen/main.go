// Command graphgen generates the synthetic graph families used by the
// experiments and writes them as edge-list files consumable by trianglecount
// and by any other edge-list tool. Outputs ending in .bex are written in the
// block-indexed compressed binary format (.bex v2), which parses an order of
// magnitude faster than text and supports sharded parallel passes natively;
// .bexd outputs become sharded multi-file directories. -format overrides the
// extension-based choice, and -convert translates an existing file or
// directory between any of the formats.
//
// Usage:
//
//	graphgen -family wheel -n 100000 -out wheel.txt
//	graphgen -family ba -n 50000 -k 4 -seed 7 -out ba.bex
//	graphgen -family chunglu -n 50000 -avgdeg 8 -beta 2.5 -out cl.txt
//	graphgen -family book -pages 10000 -out book.txt
//	graphgen -convert ba.txt -out ba.bex
//	graphgen -convert ba.bex -format bexd -out ba.bexd
//
// Exit codes: 0 success; 1 internal error; 2 usage error; 3 I/O error
// (missing, unreadable, truncated, or corrupt input, or an unwritable
// output).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strings"

	"degentri/internal/buildinfo"
	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/stream"
)

func main() {
	var (
		family     = flag.String("family", "wheel", "graph family: wheel, book, friendship, apollonian, grid, tri-grid, complete, ba, chunglu, gnm, star-triangles, lowerbound-ish")
		n          = flag.Int("n", 10000, "number of vertices (or insertions/pages where noted)")
		k          = flag.Int("k", 4, "attachment parameter / part size / triangles")
		pages      = flag.Int("pages", 1000, "pages for the book family")
		avgdeg     = flag.Float64("avgdeg", 8, "average degree for chunglu")
		beta       = flag.Float64("beta", 2.5, "power-law exponent for chunglu")
		m          = flag.Int("m", 0, "edge count for gnm (default 4n)")
		seed       = flag.Uint64("seed", 1, "random seed")
		out        = flag.String("out", "", "output path (default stdout); .bex selects the binary format, .bexd the sharded directory layout")
		format     = flag.String("format", "auto", "output format: auto (by extension), text, bex2, bexd")
		blockEdges = flag.Int("block-edges", 0, "edges per .bex v2 block (default 8192)")
		convert    = flag.String("convert", "", "convert this edge file (text, .bex, or .bexd) to -out instead of generating")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("graphgen"))
		return
	}

	if *convert != "" {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "graphgen: -convert requires -out")
			os.Exit(2)
		}
		src, err := stream.OpenAuto(*convert)
		exitOn(err)
		defer src.Close()
		edges, err := writeOut(*out, src, *format, *blockEdges)
		exitOn(err)
		fmt.Printf("converted %s -> %s (%d edges)\n", *convert, *out, edges)
		return
	}

	var g *graph.Graph
	switch *family {
	case "wheel":
		g = gen.Wheel(*n)
	case "book":
		g = gen.Book(*pages)
	case "friendship":
		g = gen.Friendship(*k)
	case "apollonian":
		g = gen.Apollonian(*n)
	case "grid":
		g = gen.Grid(*n, *n)
	case "tri-grid":
		g = gen.TriangularGrid(*n, *n)
	case "complete":
		g = gen.Complete(*n)
	case "ba":
		g = gen.BarabasiAlbert(*n, *k, *seed)
	case "chunglu":
		g = gen.ChungLu(*n, *avgdeg, *beta, *seed)
	case "gnm":
		edges := *m
		if edges == 0 {
			edges = 4 * *n
		}
		g = gen.ErdosRenyiGNM(*n, edges, *seed)
	case "star-triangles":
		g = gen.StarPlusTriangles(*n, *k)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown family %q\n", *family)
		os.Exit(2)
	}

	comment := fmt.Sprintf("family=%s n=%d seed=%d degeneracy=%d triangles=%d",
		*family, g.NumVertices(), *seed, g.Degeneracy(), g.TriangleCount())
	if *out == "" {
		if _, err := stream.WriteEdgeList(os.Stdout, stream.FromGraph(g)); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "# "+comment)
		return
	}
	if resolveFormat(*format, *out) == "text" {
		exitOn(stream.WriteGraphFile(*out, g, comment))
	} else {
		_, err := writeOut(*out, stream.FromGraph(g), *format, *blockEdges)
		exitOn(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, comment)
}

// resolveFormat maps the -format flag (and, for "auto", the output path's
// extension) to a concrete format name.
func resolveFormat(format, out string) string {
	if format != "auto" {
		return format
	}
	lower := strings.ToLower(out)
	switch {
	case strings.HasSuffix(lower, stream.BexdExt):
		return "bexd"
	case strings.HasSuffix(lower, stream.BexExt):
		return "bex2"
	default:
		return "text"
	}
}

// writeOut writes the stream to out in the resolved format.
func writeOut(out string, s stream.Stream, format string, blockEdges int) (int, error) {
	switch resolveFormat(format, out) {
	case "text":
		file, err := os.Create(out)
		if err != nil {
			return 0, err
		}
		edges, err := stream.WriteEdgeList(file, s)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		return edges, err
	case "bex2":
		return stream.WriteBex2File(out, s, blockEdges)
	case "bexd":
		return stream.WriteBexd(out, s, blockEdges, 0)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown format %q\n", format)
		os.Exit(2)
		return 0, nil
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		var perr *fs.PathError
		if errors.Is(err, stream.ErrTruncated) || errors.Is(err, stream.ErrCorruptHeader) ||
			errors.Is(err, stream.ErrCorruptBlock) ||
			errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) || errors.As(err, &perr) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}
