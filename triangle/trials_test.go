package triangle_test

import (
	"path/filepath"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/stream"
	"degentri/triangle"
)

// writeHolmeKimFile writes a Holme–Kim graph as a text edge list and returns
// its exact triangle count.
func writeHolmeKimFile(t *testing.T, path string, n, k int) int64 {
	t.Helper()
	g := gen.HolmeKim(n, k, 0.6, 37)
	if err := stream.WriteGraphFile(path, g, "trials test"); err != nil {
		t.Fatal(err)
	}
	return g.TriangleCount()
}

// TestTrialsBitIdenticalAcrossBackends is the storage-refactor acceptance
// pin at the trials layer: the same canonical stream served from text,
// block-indexed .bex v2, and a sharded .bexd directory must produce
// identical per-trial estimates at every worker count — the storage format
// is an I/O detail, never a semantic one. It also pins that each run reports
// the backend it actually used.
func TestTrialsBitIdenticalAcrossBackends(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	writeHolmeKimFile(t, txt, 3000, 4)
	reEncode := func(name string, w func(s stream.Stream) (int, error)) {
		t.Helper()
		src, err := stream.OpenAuto(txt)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		if _, err := w(src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	bex2 := filepath.Join(dir, "g.bex")
	bexd := filepath.Join(dir, "g.bexd")
	reEncode("bex2", func(s stream.Stream) (int, error) { return stream.WriteBex2File(bex2, s, 128) })
	reEncode("bexd", func(s stream.Stream) (int, error) { return stream.WriteBexd(bexd, s, 128, 1024) })

	backends := []struct {
		name string
		path string
	}{
		{stream.BackendText, txt},
		{stream.BackendBex2, bex2},
		{stream.BackendBexd, bexd},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var want []float64
		for _, b := range backends {
			opts := triangle.Options{Epsilon: 0.3, Seed: 11, Workers: workers}
			res, err := triangle.EstimateFileTrials(b.path, opts, 3)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", b.name, workers, err)
			}
			if res.Backend != b.name {
				t.Fatalf("%s workers=%d: reported backend %q", b.name, workers, res.Backend)
			}
			if want == nil {
				want = res.Estimates
				continue
			}
			for i := range want {
				if res.Estimates[i] != want[i] {
					t.Fatalf("%s workers=%d trial %d: estimate %v, text gave %v",
						b.name, workers, i, res.Estimates[i], want[i])
				}
			}
		}
	}
}

// TestEstimateFileTrialsMatchesSingleRuns pins the -trials contract: trial i
// of a fused EstimateFileTrials run reproduces exactly the estimate a plain
// EstimateFile call with seed base+i·7919 returns, while the whole fused run
// costs far fewer physical scans than logical passes.
func TestEstimateFileTrialsMatchesSingleRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.txt")
	writeHolmeKimFile(t, path, 6000, 5)

	opts := triangle.Options{Epsilon: 0.2, Seed: 9}
	const trials = 3
	res, err := triangle.EstimateFileTrials(path, opts, trials)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != trials || res.Trials != trials {
		t.Fatalf("expected %d estimates, got %+v", trials, res)
	}
	if !res.DegeneracyApprox || res.DegeneracyBound < 1 {
		t.Fatalf("expected a streaming κ bound, got %+v", res)
	}
	if res.Scans >= res.Passes {
		t.Fatalf("fused trials should scan less than they pass: scans=%d passes=%d", res.Scans, res.Passes)
	}
	if res.StdErr < 0 {
		t.Fatalf("negative stderr: %+v", res)
	}

	for i := 0; i < trials; i++ {
		runOpts := opts
		runOpts.Seed = opts.Seed + uint64(i)*7919
		single, err := triangle.EstimateFile(path, runOpts)
		if err != nil {
			t.Fatalf("single run %d: %v", i, err)
		}
		if res.Estimates[i] != single.Estimate {
			t.Errorf("trial %d estimate %v != single-run estimate %v (same seed)", i, res.Estimates[i], single.Estimate)
		}
	}
}

func TestEstimateFileTrialsValidation(t *testing.T) {
	if _, err := triangle.EstimateFileTrials("nope.txt", triangle.Options{}, 0); err == nil {
		t.Fatal("expected an error for zero trials")
	}
	if _, err := triangle.EstimateFileTrials("/definitely/not/here.txt", triangle.Options{}, 2); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}

// TestEstimateFileTrialsWithGuess covers the fixed-guess path (no geometric
// search): the trials run in lockstep, so the fused run's scans stay within
// the shared prelude plus one trial's own passes — not trials× that.
func TestEstimateFileTrialsWithGuess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "guess.txt")
	truth := writeHolmeKimFile(t, path, 6000, 5)

	opts := triangle.Options{Epsilon: 0.2, Seed: 4, TriangleGuess: truth}
	const trials = 6
	res, err := triangle.EstimateFileTrials(path, opts, trials)
	if err != nil {
		t.Fatal(err)
	}
	// Passes = prelude + trials·perTrial with identical lockstep trials;
	// scans must not exceed prelude + perTrial.
	perTrial := 6 // the fixed-guess estimator runs at most 6 passes
	prelude := res.Passes - trials*perTrial
	if prelude < 0 {
		t.Fatalf("unexpected pass accounting: %+v", res)
	}
	if maxWant := prelude + perTrial; res.Scans > maxWant {
		t.Errorf("scans = %d, want at most prelude+one trial = %d (passes=%d)", res.Scans, maxWant, res.Passes)
	}
}
