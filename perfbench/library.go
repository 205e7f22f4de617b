package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"degentri/internal/core"
	"degentri/internal/corpus"
	"degentri/internal/degen"
	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/sampling"
	"degentri/internal/stream"
	"degentri/triangle"
)

// Input sizes. The planar grid is the paper's headline regime (κ = 3,
// T ≈ 0.67m). At ~1M edges one answer takes 0.4–0.7 s on 2 cores, so a 25 s
// run holds 40–60 answers, enough for a tail with ten samples beyond it; at
// 1.9M edges the run-to-run p50 was too loose to gate. Text answers cost ~3×
// more per edge than .bex v2 ones, so the text workload uses a smaller grid
// to keep a comparable answer count.
const (
	planarSide     = 577 // 577×577 grid: 996,480 edges
	textPlanarSide = 260 // 260×260 grid: 201,761 edges
	setupRepeats   = 5   // setup_s is the median of this many full set-ups
	shippedEpsilon = 0.1 // the facade's default ε, the accuracy the answer promises
)

// Seed derivation keys: every shuffle and every estimator seed of a run
// derives from the workload seed through one of these.
const (
	keyShuffle = 0x5f
	keyAnswer  = 0xa5
	keyDaemon  = 0xd0
)

func answerSeed(seed uint64, i int) uint64 { return sampling.MixSeed(seed, keyAnswer, uint64(i)) }

func shuffleSeed(seed uint64, i int) uint64 { return sampling.MixSeed(seed, keyShuffle, uint64(i)) }

// libInput is a prepared library workload: the graph's exact facts and a
// way to obtain the input file of each answer.
type libInput struct {
	exactT  int64
	kappa   int
	m       int
	backend string
	// path returns the file answer i reads. For text-ingest each call
	// writes answer i's shuffle to a file the process has never opened;
	// the caller does not time it.
	path func(i int) (string, error)
	// asBex, set for text-ingest, writes answer i's shuffle as .bex v2.
	asBex func(i int) (string, error)
}

func runSkewedFacade(cfg runConfig, rep *report) error {
	return runLibrary(cfg, rep, func(dir string) (*libInput, error) {
		e, _ := corpus.Find("email-Enron")
		return bexInput(dir, e.Standin(), cfg.seed)
	})
}

func runPlanarScan(cfg runConfig, rep *report) error {
	return runLibrary(cfg, rep, func(dir string) (*libInput, error) {
		return bexInput(dir, gen.TriangularGrid(planarSide, planarSide), cfg.seed)
	})
}

func runTextIngest(cfg runConfig, rep *report) error {
	return runLibrary(cfg, rep, func(dir string) (*libInput, error) {
		return textInput(dir, gen.TriangularGrid(textPlanarSide, textPlanarSide), cfg.seed)
	})
}

// bexInput writes one seed-shuffled .bex v2 copy of g that every answer
// reads.
func bexInput(dir string, g *graph.Graph, seed uint64) (*libInput, error) {
	path := filepath.Join(dir, "graph.bex")
	if _, err := stream.WriteBex2File(path, stream.FromGraphShuffled(g, shuffleSeed(seed, 0)), 0); err != nil {
		return nil, err
	}
	return &libInput{
		exactT: g.TriangleCount(), kappa: g.Degeneracy(), m: g.NumEdges(),
		backend: stream.BackendBex2,
		path:    func(int) (string, error) { return path, nil },
	}, nil
}

// textInput serves every answer a fresh whitespace edge list, shuffled by
// the answer index, so each answer parses a file the process has never
// read (the parser's shard index is cached per file).
func textInput(dir string, g *graph.Graph, seed uint64) (*libInput, error) {
	edges := g.Edges()
	in := &libInput{exactT: g.TriangleCount(), kappa: g.Degeneracy(), m: g.NumEdges(), backend: stream.BackendText}
	prev, files := "", 0
	in.path = func(i int) (string, error) {
		if prev != "" {
			os.Remove(prev)
		}
		files++
		prev = filepath.Join(dir, fmt.Sprintf("input-%d.txt", files))
		return prev, writeShuffledText(prev, edges, shuffleSeed(seed, i))
	}
	in.asBex = func(i int) (string, error) {
		path := filepath.Join(dir, "same-shuffle.bex")
		_, err := stream.WriteBex2File(path, stream.FromGraphShuffled(g, shuffleSeed(seed, i)), 0)
		return path, err
	}
	return in, nil
}

// writeShuffledText writes the edges in the order FromGraphShuffled gives
// for this seed, one "u v" line each.
func writeShuffledText(path string, edges []graph.Edge, seed uint64) error {
	perm := make([]graph.Edge, len(edges))
	copy(perm, edges)
	rng := sampling.NewRNG(seed)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, e := range perm {
		line = strconv.AppendInt(line[:0], int64(e.U), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(e.V), 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// Sync, so writing back this file does not overlap the timed answer.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// answer is one timed default EstimateFile call: its wall time and the CPU
// time the process spent on it.
type answer struct {
	res triangle.Result
	err error
	dur time.Duration
	cpu time.Duration
}

func estimate(path string, opts triangle.Options) answer {
	start, cpu := time.Now(), selfCPU()
	res, err := triangle.EstimateFile(path, opts)
	return answer{res: res, err: err, dur: time.Since(start), cpu: selfCPU() - cpu}
}

// check classifies an answer and records any failed correctness check.
func (a answer) check(rep *report, backend string) outcome {
	switch {
	case a.err != nil:
		rep.fail("answer error: %v", a.err)
		return outcomeError
	case a.res.Partial || a.res.Aborted:
		return outcomePartial
	}
	r := a.res
	if math.IsNaN(r.Estimate) || math.IsInf(r.Estimate, 0) || r.Estimate < 0 {
		rep.fail("estimate %v is not a finite non-negative number", r.Estimate)
		return outcomeBadCheck
	}
	if !(r.Passes >= r.Scans && r.Scans >= 1) {
		rep.fail("want Passes ≥ Scans ≥ 1, got Passes=%d Scans=%d", r.Passes, r.Scans)
		return outcomeBadCheck
	}
	if r.Backend != backend {
		rep.fail("backend %q, want %q", r.Backend, backend)
		return outcomeBadCheck
	}
	return outcomeOK
}

// setupRepeated runs the set-up setupRepeats times, each in a fresh
// directory, reports the median CPU time of one as setup_s and keeps the
// last result. A set-up's CPU time is this process's, plus what childCPU
// reports for processes the set-up started (nil when it starts none).
func setupRepeated[T any](cfg runConfig, rep *report, setup func(dir string) (T, error), childCPU func(T) (time.Duration, error), discard func(T)) (T, error) {
	var kept T
	var times []float64
	for k := 0; k < setupRepeats; k++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return kept, err
		}
		start := selfCPU()
		got, err := setup(dir)
		if err != nil {
			return kept, err
		}
		cpu := selfCPU() - start
		if childCPU != nil {
			child, err := childCPU(got)
			if err != nil {
				return kept, err
			}
			cpu += child
		}
		times = append(times, cpu.Seconds())
		if k < setupRepeats-1 {
			if discard != nil {
				discard(got)
			}
			if err := os.RemoveAll(dir); err != nil {
				return kept, err
			}
		}
		kept = got
	}
	rep.set("setup_s", median(times))
	return kept, nil
}

// runLibrary is the closed loop of the library workloads: one caller makes
// default EstimateFile calls back to back until the run's time is up.
func runLibrary(cfg runConfig, rep *report, prepare func(dir string) (*libInput, error)) error {
	in, err := setupRepeated(cfg, rep, func(dir string) (*libInput, error) {
		in, err := prepare(dir)
		if err != nil {
			return nil, err
		}
		path, err := in.path(0)
		if err != nil {
			return nil, err
		}
		// The warm-up runs at the known T: it opens, peels and scans like
		// an answer, without the search whose cost varies with the seed.
		warm := estimate(path, triangle.Options{Seed: answerSeed(cfg.seed, 0), TriangleGuess: in.exactT})
		if o := warm.check(rep, in.backend); o != outcomeOK {
			return nil, fmt.Errorf("warm-up answer failed (outcome %d): %v", o, warm.err)
		}
		return in, nil
	}, nil, nil)
	if err != nil {
		return err
	}
	// Return set-up's memory to the OS so it does not count in the answers'
	// resident set.
	runtime.GC()
	debug.FreeOSMemory()
	if cfg.trace {
		return traceLibrary(cfg, rep, in)
	}

	var cpu, scans, space []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var last answer
	var lastPath string
	var lastIndex int
	for i := 1; time.Now().Before(deadline); i++ {
		path, err := in.path(i)
		if err != nil {
			return err
		}
		a := estimate(path, triangle.Options{Seed: answerSeed(cfg.seed, i)})
		o := a.check(rep, in.backend)
		rep.tally.add(o)
		if o != outcomeOK {
			continue
		}
		last, lastPath, lastIndex = a, path, i
		cpu = append(cpu, ms(a.cpu))
		scans = append(scans, float64(a.res.Scans))
		space = append(space, float64(a.res.SpaceWords))
	}
	if len(cpu) == 0 {
		return fmt.Errorf("no answer completed")
	}

	// A repeated (input, seed) must give a bit-identical answer, and so must
	// a .bex v2 file of a text answer's shuffle.
	opts := triangle.Options{Seed: answerSeed(cfg.seed, lastIndex)}
	again := estimate(lastPath, opts)
	if again.err != nil || math.Float64bits(again.res.Estimate) != math.Float64bits(last.res.Estimate) {
		rep.fail("repeat of answer %d gave %v (err %v), first gave %v", lastIndex, again.res.Estimate, again.err, last.res.Estimate)
	}
	if in.asBex != nil {
		bexPath, err := in.asBex(lastIndex)
		if err != nil {
			return err
		}
		fromBex := estimate(bexPath, opts)
		if fromBex.err != nil || math.Float64bits(fromBex.res.Estimate) != math.Float64bits(last.res.Estimate) {
			rep.fail("answer %d: .bex v2 of the text shuffle gave %v (err %v), text gave %v", lastIndex, fromBex.res.Estimate, fromBex.err, last.res.Estimate)
		}
	}

	rep.set("cpu_ms_per_answer", mean(cpu))
	rep.set("ok_frac", 1-rep.tally.failFrac())
	rep.set("scans_per_answer", mean(scans))
	rep.set("space_words.p50", median(space))
	return nil
}

// traceLibrary is the traced run of a library workload. Each iteration
// makes an untraced answer and a traced one on the same seed (their ratio is
// the tracing overhead), then re-runs the answer's two phases standalone
// through timing executors: the κ̂ peel (degen.EstimateOn) and a known-T
// estimator run (core.Estimator.RunOn) with the facade's multipliers.
func traceLibrary(cfg runConfig, rep *report, in *libInput) error {
	tr := newTracer()
	// Each sample list is reported as its median over the run's answers.
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	within := 0
	dc0 := stream.ReadDecodeCacheStats()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 1; time.Now().Before(deadline); i++ {
		seed := answerSeed(cfg.seed, i)
		path, err := in.path(i)
		if err != nil {
			return err
		}
		// Peak RSS is read per untraced answer, so neither set-up nor the
		// tracer's own memory counts.
		clearPeakRSS(os.Getpid())
		plain := estimate(path, triangle.Options{Seed: seed})
		add("process.peak_rss_mb", peakRSSMB(os.Getpid()))
		if o := plain.check(rep, in.backend); o != outcomeOK {
			rep.tally.add(o)
			continue
		}
		add("untraced", ms(plain.dur))

		// The traced answer reads a fresh file too, so text parsing is
		// measured cold in both.
		if path, err = in.path(i); err != nil {
			return err
		}
		ansID := tr.begin("answer", -1, i)
		log := newReadLog(tr, ansID, i)
		a := estimate(path, triangle.Options{Seed: seed, WrapStream: func(s stream.Stream) stream.Stream { return newTimedStream(s, log) }})
		log.finish()
		tr.end(ansID)
		o := a.check(rep, in.backend)
		rep.tally.add(o)
		if o != outcomeOK {
			continue
		}
		if math.Float64bits(a.res.Estimate) != math.Float64bits(plain.res.Estimate) {
			rep.fail("traced estimate %v differs from untraced %v (seed %d)", a.res.Estimate, plain.res.Estimate, seed)
		}
		ans := tr.get(ansID)
		add("traced", ms(ans.dur()))
		if log.firstReset >= 0 {
			tr.add(span{Parent: ansID, Answer: i, Name: "stream.open", Start: ans.Start, End: log.firstReset})
			add("stream.open_ms", ms(time.Duration(log.firstReset-ans.Start)))
		}
		add("stream.read_ms", ms(log.readTotal()))
		add("stream.read_share", float64(covered(log.readIntervals(), ans.Start, ans.End))/float64(ans.dur()))
		add("stream.edges_read", float64(log.edges))
		add("stream.scans", float64(len(log.scans)))
		add("core.passes_per_answer", float64(a.res.Passes))
		add("sched.scans_per_pass", float64(a.res.Scans)/float64(a.res.Passes))
		e := math.Abs(a.res.Estimate-float64(in.exactT)) / float64(in.exactT)
		add("quality.rel_err.p50", e)
		if e <= shippedEpsilon {
			within++
		}

		peel, fixed, err := tracePhases(tr, ansID, i, path, in, seed, a.res.DegeneracyBound, rep)
		if err != nil {
			return err
		}
		add("degen.peel_ms", ms(peel.dur))
		add("degen.passes", float64(peel.res.Passes))
		add("degen.space_words", float64(peel.res.SpaceWords))
		add("degen.kappa_ratio", float64(peel.res.Kappa)/float64(in.kappa))
		add("core.fixed_t_ms", ms(fixed.dur))
		kinds := map[string]*passStats{}
		engine := time.Duration(0)
		for _, bd := range []map[string]*passStats{peel.passes, fixed.passes} {
			for kind, st := range bd {
				kinds[kind] = st
				engine += st.engine
			}
		}
		if kinds["other"] != nil {
			rep.fail("a traced pass came from no known pass body")
		}
		add("passes.engine_ms", ms(engine))
		for _, kind := range passKindOrder {
			st := kinds[kind]
			if st == nil {
				st = &passStats{}
			}
			add("passes."+kind+".wall_ms", ms(st.wall))
			add("passes."+kind+".body_ms", ms(st.body))
			add("passes."+kind+".merge_ms", ms(st.merge))
		}
	}
	if len(samples["traced"]) == 0 {
		return fmt.Errorf("no traced answer completed")
	}
	untraced, traced := median(samples["untraced"]), median(samples["traced"])
	rep.set("answer_ms.p50", untraced)
	rep.setTail("answer_ms.tail", samples["untraced"])
	rep.set("answers_per_s", 1e3/mean(samples["untraced"]))
	delete(samples, "untraced")
	delete(samples, "traced")
	for name, xs := range samples {
		rep.set(name, median(xs))
	}
	rep.set("quality.within_eps_frac", float64(within)/float64(len(samples["quality.rel_err.p50"])))
	rep.set("core.search_overhead_x", untraced/median(samples["core.fixed_t_ms"]))
	rep.set("trace.overhead", traced/untraced-1)
	dc := stream.ReadDecodeCacheStats()
	if hits, misses := dc.Hits-dc0.Hits, dc.Misses-dc0.Misses; hits+misses > 0 {
		rep.set("stream.decode_cache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	rep.set("stream.decode_cache.evictions", float64(dc.Evictions-dc0.Evictions))
	return tr.writeFile(filepath.Join(cfg.workDir, fmt.Sprintf("trace-seed%d.jsonl", cfg.seed)))
}

// phase is one standalone, traced re-run of part of an answer.
type phase[R any] struct {
	res    R
	dur    time.Duration
	passes map[string]*passStats
}

// tracePhases re-runs the two phases of answer ansID through timing
// executors: the κ̂ peel and the known-T estimator. The peel must find the
// same κ̂ the answer used.
func tracePhases(tr *tracer, ansID, i int, path string, in *libInput, seed uint64, kappaHat int, rep *report) (phase[degen.Result], phase[core.Result], error) {
	var peel phase[degen.Result]
	var fixed phase[core.Result]
	fs, err := stream.OpenAutoOpts(path, stream.OpenOptions{})
	if err != nil {
		return peel, fixed, err
	}
	defer fs.Close()
	if _, known := fs.Len(); !known {
		// A text stream learns m from a counting scan, as the facade's does.
		if _, err := stream.CountEdges(fs); err != nil {
			return peel, fixed, err
		}
	}

	peelID := tr.begin("degen.peel", ansID, i)
	peelLog := newReadLog(tr, peelID, i)
	px := newTimedExecutor(passes.NewDirect(newTimedStream(fs, peelLog), in.m, 0), tr, peelID, i)
	peel.res, err = degen.EstimateOn(px, degen.Options{})
	peelLog.finish()
	tr.end(peelID)
	if err != nil {
		return peel, fixed, err
	}
	peel.dur = tr.get(peelID).dur()
	peel.passes = px.passBreakdown(peelLog.readIntervals())
	if peel.res.Kappa != kappaHat {
		rep.fail("standalone peel found κ̂=%d, the answer used %d", peel.res.Kappa, kappaHat)
	}

	cfg := core.DefaultConfig(shippedEpsilon, max(peel.res.Kappa, 1), in.exactT)
	cfg.CR, cfg.CL, cfg.CS = 8, 8, 4 // the facade's multipliers
	cfg.Seed = seed
	fixedID := tr.begin("core.fixed_t", ansID, i)
	fixedLog := newReadLog(tr, fixedID, i)
	fx := newTimedExecutor(passes.NewDirect(newTimedStream(fs, fixedLog), in.m, 0), tr, fixedID, i)
	fixed.res, err = core.NewEstimator(cfg).RunOn(fx)
	fixedLog.finish()
	tr.end(fixedID)
	if err != nil {
		return peel, fixed, err
	}
	fixed.dur = tr.get(fixedID).dur()
	fixed.passes = fx.passBreakdown(fixedLog.readIntervals())
	return peel, fixed, nil
}

// clearPeakRSS resets a process's peak-RSS mark (VmHWM), so the next
// reading covers only what ran since.
func clearPeakRSS(pid int) {
	// Best effort: without the reset the reading also covers earlier work.
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
