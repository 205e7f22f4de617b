package triangle

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"degentri/internal/graph"
	"degentri/internal/stream"
)

func TestExactAndDegeneracy(t *testing.T) {
	tri := []Edge{{0, 1}, {1, 2}, {0, 2}}
	if Exact(tri) != 1 {
		t.Fatalf("Exact(triangle) = %d", Exact(tri))
	}
	if Degeneracy(tri) != 2 {
		t.Fatalf("Degeneracy(triangle) = %d", Degeneracy(tri))
	}
	// Dirty input: loops, duplicates, negatives are ignored.
	dirty := []Edge{{0, 1}, {1, 0}, {2, 2}, {-1, 3}, {1, 2}, {0, 2}}
	if Exact(dirty) != 1 {
		t.Fatalf("Exact(dirty) = %d", Exact(dirty))
	}
	if Exact(nil) != 0 {
		t.Fatal("Exact(nil) should be 0")
	}
}

func TestGeneratorsGroundTruth(t *testing.T) {
	if got := Exact(Wheel(101)); got != 100 {
		t.Errorf("wheel triangles = %d, want 100", got)
	}
	if got := Exact(Book(77)); got != 77 {
		t.Errorf("book triangles = %d, want 77", got)
	}
	if got := Exact(Friendship(20)); got != 20 {
		t.Errorf("friendship triangles = %d, want 20", got)
	}
	if got := Exact(Apollonian(40)); got != 121 {
		t.Errorf("apollonian triangles = %d, want 121", got)
	}
	pa := PreferentialAttachment(500, 3, 7)
	if Degeneracy(pa) != 3 {
		t.Errorf("preferential attachment degeneracy = %d, want 3", Degeneracy(pa))
	}
	pl := PowerLaw(800, 6, 2.5, 9)
	if len(pl) == 0 {
		t.Error("power-law generator returned no edges")
	}
}

func TestGraphStats(t *testing.T) {
	s := GraphStats(Wheel(100))
	if s.Vertices != 100 || s.Edges != 198 || s.Triangles != 99 || s.Degeneracy != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxDegree != 99 || s.EdgeDegreeSum <= 0 || s.Transitivity <= 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEstimateErrorsOnEmpty(t *testing.T) {
	if _, err := Estimate(nil, Options{}); err != ErrNoEdges {
		t.Fatalf("expected ErrNoEdges, got %v", err)
	}
}

func TestEstimateWheelWithExplicitParameters(t *testing.T) {
	edges := Wheel(3000)
	truth := float64(Exact(edges))
	var sum float64
	trials := 6
	for i := 0; i < trials; i++ {
		res, err := Estimate(edges, Options{
			Epsilon:       0.1,
			Degeneracy:    3,
			TriangleGuess: int64(truth),
			Seed:          uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes != 6 {
			t.Fatalf("passes = %d, want 6", res.Passes)
		}
		if res.DegeneracyBound != 3 {
			t.Fatalf("kappa bound = %d", res.DegeneracyBound)
		}
		sum += res.Estimate
	}
	rel := math.Abs(sum/float64(trials)-truth) / truth
	if rel > 0.25 {
		t.Fatalf("relative error %.3f", rel)
	}
}

func TestEstimateAutoParameters(t *testing.T) {
	edges := PreferentialAttachment(2000, 4, 11)
	truth := float64(Exact(edges))
	var sum float64
	trials := 5
	for i := 0; i < trials; i++ {
		res, err := Estimate(edges, Options{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Edges == 0 || res.SpaceWords == 0 {
			t.Fatalf("missing accounting: %+v", res)
		}
		sum += res.Estimate
	}
	rel := math.Abs(sum/float64(trials)-truth) / truth
	if rel > 0.4 {
		t.Fatalf("auto-parameter relative error %.3f", rel)
	}
}

func TestEstimateDefaultsApplied(t *testing.T) {
	edges := Wheel(500)
	res, err := Estimate(edges, Options{Epsilon: 5, Seed: 0, SampleMultiplier: -1, Degeneracy: 3, TriangleGuess: 499})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate < 0 {
		t.Fatal("negative estimate")
	}
}

func TestEstimateRespectsSpaceCutoff(t *testing.T) {
	edges := PreferentialAttachment(2000, 3, 5)
	res, err := Estimate(edges, Options{Degeneracy: 3, TriangleGuess: 1, MaxSpaceWords: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expected abort at tiny space budget")
	}
}

func writeEdgeFile(t *testing.T, edges []Edge) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, e := range edges {
		if _, err := f.WriteString(itoa(e.U) + " " + itoa(e.V) + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestFileAPIs(t *testing.T) {
	edges := Wheel(400)
	path := writeEdgeFile(t, edges)

	exact, err := ExactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if exact != 399 {
		t.Fatalf("ExactFile = %d", exact)
	}

	stats, err := GraphStatsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Triangles != 399 || stats.Degeneracy != 3 {
		t.Fatalf("stats %+v", stats)
	}

	// SampleMultiplier 4 keeps the single-run variance low enough for a
	// stable threshold (at 1× this workload's per-run error is routinely
	// ~0.4-0.7 at any seed; the estimator is unbiased, not low-variance).
	res, err := EstimateFile(path, Options{Degeneracy: 3, TriangleGuess: 399, Seed: 2, SampleMultiplier: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Fatalf("edges = %d, want %d", res.Edges, len(edges))
	}
	rel := math.Abs(res.Estimate-399) / 399
	if rel > 0.6 {
		t.Fatalf("single-run relative error %.3f unexpectedly large", rel)
	}

	// Without a degeneracy bound the file API approximates one from the
	// stream: a certified upper bound within the peeling factor 2(1+ε) = 3
	// of the true κ = 3, never a materializing pass.
	res2, err := EstimateFile(path, Options{Seed: 2, TriangleGuess: 399})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.DegeneracyApprox {
		t.Fatal("expected the streamed degeneracy approximation")
	}
	if res2.DegeneracyBound < 3 || res2.DegeneracyBound > 9 {
		t.Fatalf("approximate degeneracy bound = %d, want within [3, 9]", res2.DegeneracyBound)
	}

	// The exact escape hatch still reports the tight bound.
	res3, err := EstimateFile(path, Options{Seed: 2, TriangleGuess: 399, ExactDegeneracy: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.DegeneracyBound != 3 || res3.DegeneracyApprox {
		t.Fatalf("exact degeneracy bound = %d (approx=%v), want 3 (exact)", res3.DegeneracyBound, res3.DegeneracyApprox)
	}
}

func TestFileAPIErrors(t *testing.T) {
	if _, err := ExactFile("/definitely/not/a/file"); err == nil {
		t.Error("missing file should error")
	}
	if _, err := GraphStatsFile("/definitely/not/a/file"); err == nil {
		t.Error("missing file should error")
	}
	if _, err := EstimateFile("/definitely/not/a/file", Options{Degeneracy: 2}); err == nil {
		t.Error("missing file should error")
	}
	empty := writeEdgeFile(t, nil)
	if _, err := EstimateFile(empty, Options{Degeneracy: 2}); err != ErrNoEdges {
		t.Errorf("empty file should return ErrNoEdges, got %v", err)
	}
	// A retired .bex v1 file (a 16-byte "BEX1" header) is refused at open
	// with the reader's diagnosis, never parsed as text.
	v1 := filepath.Join(t.TempDir(), "old.bex")
	if err := os.WriteFile(v1, append([]byte("BEX1"), make([]byte, 12)...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, want := stream.OpenAuto(v1)
	if _, err := EstimateFile(v1, Options{}); !errors.Is(err, stream.ErrCorruptHeader) ||
		want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), "v1") {
		t.Errorf("v1 file: EstimateFile error %v, want the OpenAuto diagnosis %v", err, want)
	}
}

// TestEstimateFileDecodeCache pins the facade's cache policy: a default
// EstimateFile over a .bex v2 file decodes each block once (one miss per
// block), serves every later scan from the decoded-block cache, and matches
// a run with the cache disabled (budget 0) bit for bit.
func TestEstimateFileDecodeCache(t *testing.T) {
	edges := ClusteredPreferentialAttachment(800, 4, 0.5, 3)
	raw := make([]graph.Edge, len(edges))
	for i, e := range edges {
		raw[i] = graph.Edge{U: e.U, V: e.V}
	}
	const blockEdges = 64
	path := filepath.Join(t.TempDir(), "g.bex")
	if _, err := stream.WriteBex2File(path, stream.FromEdges(raw), blockEdges); err != nil {
		t.Fatal(err)
	}
	blocks := int64((len(raw) + blockEdges - 1) / blockEdges)
	opts := Options{Epsilon: 0.3, Seed: 5, Workers: 1}

	setDecodeCacheBudget(t, stream.DefaultDecodeCacheBytes)
	before := stream.ReadDecodeCacheStats()
	cached, err := EstimateFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := stream.ReadDecodeCacheStats()
	if misses := after.Misses - before.Misses; misses != blocks {
		t.Errorf("misses = %d, want one per block (%d)", misses, blocks)
	}
	if hits, want := after.Hits-before.Hits, int64(cached.Scans-1)*blocks; hits != want {
		t.Errorf("hits = %d, want every block of the %d later scans (%d)", hits, cached.Scans-1, want)
	}

	setDecodeCacheBudget(t, 0)
	plain, err := EstimateFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Estimate != plain.Estimate || cached.Passes != plain.Passes ||
		cached.Scans != plain.Scans || cached.SpaceWords != plain.SpaceWords {
		t.Fatalf("cached run %+v differs from budget-0 run %+v", cached, plain)
	}
}
