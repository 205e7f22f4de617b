package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/stream"
	"degentri/triangle"
)

// smallPlanar writes a triangular grid large enough for the sharded engine
// to use several shards (m > 2×8192) as .bex v2 and as text, in one shuffle.
func smallPlanar(t *testing.T) (bexPath, txtPath string, in *libInput) {
	t.Helper()
	g := gen.TriangularGrid(100, 100)
	dir := t.TempDir()
	bexPath = filepath.Join(dir, "g.bex")
	txtPath = filepath.Join(dir, "g.txt")
	if _, err := stream.WriteBex2File(bexPath, stream.FromGraphShuffled(g, shuffleSeed(7, 0)), 0); err != nil {
		t.Fatal(err)
	}
	if err := writeShuffledText(txtPath, g.Edges(), shuffleSeed(7, 0)); err != nil {
		t.Fatal(err)
	}
	return bexPath, txtPath, &libInput{exactT: g.TriangleCount(), kappa: g.Degeneracy(), m: g.NumEdges()}
}

// TestTracedAnswerIsTheSameProgram pins that the timing wrapper changes
// nothing the estimator computes, and that at Workers > 1 it forwards range
// access, so the traced answer takes the parallel path.
func TestTracedAnswerIsTheSameProgram(t *testing.T) {
	bexPath, txtPath, _ := smallPlanar(t)
	for _, path := range []string{bexPath, txtPath} {
		for _, workers := range []int{1, 2, 4} {
			opts := triangle.Options{Seed: 11, Workers: workers}
			plain, err := triangle.EstimateFile(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			ans := tr.begin("answer", -1, 1)
			log := newReadLog(tr, ans, 1)
			opts.WrapStream = func(s stream.Stream) stream.Stream { return newTimedStream(s, log) }
			traced, err := triangle.EstimateFile(path, opts)
			log.finish()
			tr.end(ans)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(plain.Estimate) != math.Float64bits(traced.Estimate) ||
				plain.Passes != traced.Passes || plain.Scans != traced.Scans || plain.SpaceWords != traced.SpaceWords {
				t.Errorf("%s workers=%d: traced %+v, untraced %+v", filepath.Base(path), workers, traced, plain)
			}
			if workers > 1 && log.rangeCalls == 0 {
				t.Errorf("%s workers=%d: the wrapper's RangeStream was never called", filepath.Base(path), workers)
			}
			// Every physical scan opens with one top-level Reset. A text
			// answer makes one scan Result.Scans does not count: the
			// facade's own edge-counting scan before the search starts.
			want := traced.Scans
			if path == txtPath {
				want++
			}
			if len(log.scans) != want {
				t.Errorf("%s workers=%d: %d scan spans, want %d", filepath.Base(path), workers, len(log.scans), want)
			}
			var edges int64
			for _, s := range tr.children(ans, "stream.scan") {
				edges += s.Edges
			}
			if edges != log.edges || edges == 0 {
				t.Errorf("%s workers=%d: scan spans hold %d edges, the log %d", filepath.Base(path), workers, edges, log.edges)
			}
		}
	}
}

// TestTracePhasesNameEveryPass pins that the standalone peel and known-T
// runs attribute every pass to a known pass body and find the answer's κ̂.
func TestTracePhasesNameEveryPass(t *testing.T) {
	bexPath, _, in := smallPlanar(t)
	res, err := triangle.EstimateFile(bexPath, triangle.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rep := newReport()
	ans := tr.begin("answer", -1, 1)
	tr.end(ans)
	peel, fixed, err := tracePhases(tr, ans, 1, bexPath, in, 3, res.DegeneracyBound, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.checks) > 0 {
		t.Fatal(rep.checks)
	}
	if peel.passes["peel_degrees"] == nil || peel.passes["peel_max_id"] == nil {
		t.Errorf("peel passes %v lack peel_degrees or peel_max_id", peel.passes)
	}
	for _, kind := range []string{"sample_edges", "degrees", "neighbors", "closure"} {
		if fixed.passes[kind] == nil {
			t.Errorf("known-T run has no %s pass: %v", kind, fixed.passes)
		}
	}
	for _, bd := range []map[string]*passStats{peel.passes, fixed.passes} {
		if bd["other"] != nil {
			t.Errorf("a pass came from no known pass body: %v", bd)
		}
		for kind, st := range bd {
			if st.engine < 0 || st.engine > st.wall {
				t.Errorf("%s: engine self time %v outside [0, wall %v]", kind, st.engine, st.wall)
			}
		}
	}
	if got := len(tr.children(ans, "degen.peel")) + len(tr.children(ans, "core.fixed_t")); got != 2 {
		t.Errorf("%d phase spans under the answer, want 2", got)
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric lists to BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, declared []struct{ Name, Unit string }, code []metricSpec) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(declared), len(code))
			return
		}
		for i := range code {
			if declared[i].Name != code[i].name || declared[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, code %s/%s", what, i,
					declared[i].Name, declared[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bench.Workloads[i].Name, w.name)
		}
	}
}
