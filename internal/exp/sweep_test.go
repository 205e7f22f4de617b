package exp

import (
	"path/filepath"
	"testing"

	"degentri/internal/corpus"
)

// fetchTestCorpus synthesizes a one-graph offline corpus cache.
func fetchTestCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := corpus.Fetch(corpus.Options{CacheDir: dir, Offline: true, Only: []string{"ca-GrQc"}}); err != nil {
		t.Fatalf("offline corpus fetch: %v", err)
	}
	return dir
}

func TestCorpusSpecs(t *testing.T) {
	dir := fetchTestCorpus(t)
	specs, err := CorpusSpecs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "ca-GrQc" {
		t.Fatalf("specs = %+v", specs)
	}
	s := specs[0]
	if s.Source != corpus.SourceStandin || s.Category != "collaboration" {
		t.Errorf("spec provenance wrong: %+v", s)
	}
	if s.Path != filepath.Join(dir, "ca-GrQc.bex") {
		t.Errorf("spec path = %s", s.Path)
	}

	w, err := s.Load(ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	if w.M == 0 || w.N == 0 || w.T == 0 || w.Kappa == 0 {
		t.Errorf("file-backed workload missing ground truth: %+v", w)
	}
	if w.Source != corpus.SourceStandin || w.Path != s.Path {
		t.Errorf("workload provenance not carried: %+v", w)
	}

	// An empty cache is a usage error, not a silent empty sweep.
	if _, err := CorpusSpecs(t.TempDir()); err == nil {
		t.Error("CorpusSpecs on an empty cache did not error")
	}
}

func TestGeneratorSpecsMatchWorkloads(t *testing.T) {
	// The spec table is the single definition: loading it must reproduce the
	// legacy workload constructors exactly.
	ws := StandardWorkloads(ScaleSmoke)
	specs := StandardSpecs()
	if len(ws) != len(specs) {
		t.Fatalf("%d workloads, %d specs", len(ws), len(specs))
	}
	for i, s := range specs {
		w, err := s.Load(ScaleSmoke)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != ws[i].Name || w.M != ws[i].M || w.T != ws[i].T || w.Kappa != ws[i].Kappa ||
			w.StreamSeed != ws[i].StreamSeed {
			t.Errorf("spec %q loads %+v, workloads gave %+v", s.Name, w, ws[i])
		}
		if w.Source != SourceGenerator {
			t.Errorf("generator spec %q has source %q", s.Name, w.Source)
		}
	}
}

func TestBenchSweep(t *testing.T) {
	dir := fetchTestCorpus(t)
	opts := BenchOptions{CorpusDir: dir, Entry: 4, PR: 8, Date: "2026-08-08", Trials: 2}

	file, table, err := BenchSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != 1 {
		t.Fatalf("sweep produced %d workloads", len(file.Workloads))
	}
	w := file.Workloads[0]
	if w.Graph != "ca-GrQc" || w.ExactT == 0 || w.Kappa == 0 {
		t.Errorf("workload facts wrong: %+v", w)
	}
	if w.KappaApprox < w.Kappa {
		t.Errorf("κ̂ = %d below exact κ = %d (peel bound must be an upper bound)", w.KappaApprox, w.Kappa)
	}
	for _, key := range []string{
		"err.median.eps0.20", "err.median.eps0.10", "err.median.eps0.05",
		"estimate.trial0.eps0.10", "passes.eps0.10", "scans.eps0.10",
		"space.mean_words.eps0.10", "kappa_hat.passes",
		"invariant.workers.eps0.10", "bytes_on_disk.bex2", "edges_per_s.bex2", "wall_ms.sweep",
	} {
		if _, ok := w.Metrics[key]; !ok {
			t.Errorf("metric %q missing", key)
		}
	}
	if len(table.Rows) != 1 {
		t.Errorf("summary table has %d rows", len(table.Rows))
	}

	// The sweep is deterministic: a second run reproduces every
	// deterministic metric bit for bit (timing metrics may differ).
	file2, _, err := BenchSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	w2 := file2.Workloads[0]
	for key, m := range w.Metrics {
		if m.Class != "deterministic" {
			continue
		}
		if m2 := w2.Metrics[key]; m2.Value != m.Value {
			t.Errorf("metric %q not deterministic: %v then %v", key, m.Value, m2.Value)
		}
	}

	// The unfused injection multiplies physical scans without changing any
	// estimate: exactly the regression the CI gate proves it can catch.
	opts.Unfused = true
	fileU, _, err := BenchSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	wu := fileU.Workloads[0]
	fusedScans := w.Metrics["scans.eps0.10"].Value
	unfusedScans := wu.Metrics["scans.eps0.10"].Value
	if unfusedScans <= fusedScans {
		t.Errorf("unfused scans %v not above fused %v", unfusedScans, fusedScans)
	}
	if wu.Metrics["estimate.trial0.eps0.10"].Value != w.Metrics["estimate.trial0.eps0.10"].Value {
		t.Error("unfused run changed the estimate; fusion must be purely an execution strategy")
	}
}
