package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"degentri/internal/corpus"
	"degentri/internal/sampling"
	"degentri/internal/stream"
	"degentri/triangle"
)

// Daemon load shape. The rate is about half of one client's closed-loop
// capacity on 2 cores (~17 req/s), so requests overlap and fuse but no
// backlog builds. A request's CPU cost depends on its seed, and the seed set
// changes with the workload seed, so cpu_ms_per_answer steadies with the
// number of distinct (graph, seed) pairs in a run: at 4 req/s and 16 seeds
// its spread over ten workload seeds was 0.09, while one workload seed
// repeated moved it by 3%. Each pair still repeats about twice per run.
const (
	daemonRate   = 8.0 // requests per second, open loop
	daemonConns  = 2
	daemonSeeds  = 32      // distinct estimator seeds per run; each (graph, seed) repeats ~2 times
	daemonBudget = 1 << 22 // the daemon's default per-request space budget, words
)

// daemonGraphs are the corpus stand-ins the daemon serves.
var daemonGraphs = []string{"ca-GrQc", "roadNet-PA-sample", "web-Stanford-sample"}

type servedGraph struct {
	name   string
	path   string
	exactT int64
}

// daemon is a running triangled process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr sync.WaitGroup
}

// startDaemon launches triangled on a free loopback port and waits until it
// is ready.
func startDaemon(bin string, graphs []servedGraph) (*daemon, error) {
	args := []string{"serve", "-listen", "127.0.0.1:0"}
	for _, g := range graphs {
		args = append(args, "-graph", g.name+"="+g.path)
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = daemonAttr()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1)
	d.stderr.Add(1)
	go func() {
		defer d.stderr.Done()
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); !sent && i >= 0 && strings.HasPrefix(line, "triangled: serving") {
				addr <- strings.TrimSpace(line[i+4:])
				sent = true
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("triangled exited before listening")
		}
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("triangled did not start listening within 30s")
	}
	for start := time.Now(); ; {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("triangled not ready within 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if it does not exit, and
// waits for the process and its log reader.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.stderr.Wait()
}

// scrape reads the daemon's /metrics and sums each metric over its labels.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// estimateReply is the part of a /estimate response the benchmark checks.
type estimateReply struct {
	Estimate   float64 `json:"estimate"`
	Backend    string  `json:"backend"`
	Passes     int     `json:"passes"`
	SpaceWords int64   `json:"spaceWords"`
	Partial    bool    `json:"partial"`
	Aborted    bool    `json:"aborted"`
	ElapsedMS  float64 `json:"elapsedMs"`
}

// request is one open-loop request and what came back.
type request struct {
	graph      int
	seed       uint64
	guess      int64 // triangle-count guess; 0 lets the daemon search
	sent, done time.Time
	status     int
	err        error
	reply      estimateReply
}

func (r *request) outcome(rep *report) outcome {
	switch {
	case r.err != nil:
		rep.fail("request %s seed %d: %v", daemonGraphs[r.graph], r.seed, r.err)
		return outcomeError
	case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable || r.status == http.StatusGatewayTimeout:
		return outcomeRefused
	case r.status != http.StatusOK:
		rep.fail("request %s seed %d: HTTP %d", daemonGraphs[r.graph], r.seed, r.status)
		return outcomeError
	case r.reply.Partial || r.reply.Aborted:
		return outcomePartial
	}
	e := r.reply
	if math.IsNaN(e.Estimate) || math.IsInf(e.Estimate, 0) || e.Estimate < 0 || e.Passes < 1 || e.Backend != stream.BackendBex2 {
		rep.fail("request %s seed %d: bad reply %+v", daemonGraphs[r.graph], r.seed, e)
		return outcomeBadCheck
	}
	return outcomeOK
}

func (r *request) do(client *http.Client, base string, g servedGraph) {
	q := url.Values{"graph": {g.name}, "seed": {strconv.FormatUint(r.seed, 10)}}
	if r.guess > 0 {
		q.Set("guess", strconv.FormatInt(r.guess, 10))
	}
	r.sent = time.Now()
	resp, err := client.Get(base + "/estimate?" + q.Encode())
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
	} else if r.status == http.StatusOK {
		r.err = json.Unmarshal(body, &r.reply)
	}
}

type daemonSetup struct {
	d      *daemon
	graphs []servedGraph
}

// runDaemonFused serves three corpus stand-ins from one triangled process
// and offers it open-loop load: requests are due at a fixed rate whatever
// the daemon's progress, and each is timed from its due time.
func runDaemonFused(cfg runConfig, rep *report) error {
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: daemonConns, MaxIdleConnsPerHost: daemonConns},
	}
	defer client.CloseIdleConnections()
	ds, err := setupRepeated(cfg, rep, func(dir string) (*daemonSetup, error) {
		ds := &daemonSetup{}
		for _, name := range daemonGraphs {
			e, _ := corpus.Find(name)
			g := e.Standin()
			path := filepath.Join(dir, name+stream.BexExt)
			if _, err := stream.WriteBex2File(path, stream.FromGraphShuffled(g, shuffleSeed(cfg.seed, len(ds.graphs))), 0); err != nil {
				return nil, err
			}
			ds.graphs = append(ds.graphs, servedGraph{name: name, path: path, exactT: g.TriangleCount()})
		}
		d, err := startDaemon(cfg.triangled, ds.graphs)
		if err != nil {
			return nil, err
		}
		ds.d = d
		for gi, g := range ds.graphs {
			// As in the library workloads, the warm-up runs at the known T.
			warm := &request{graph: gi, seed: answerSeed(cfg.seed, 0), guess: g.exactT}
			warm.do(client, d.base, g)
			if o := warm.outcome(rep); o != outcomeOK {
				d.stop()
				return nil, fmt.Errorf("warm-up request to %s failed (outcome %d, HTTP %d): %v", g.name, o, warm.status, warm.err)
			}
		}
		return ds, nil
	}, func(ds *daemonSetup) (time.Duration, error) { return procCPU(ds.d.cmd.Process.Pid) }, func(ds *daemonSetup) { ds.d.stop() })
	if err != nil {
		return err
	}
	defer ds.d.stop()
	pid := ds.d.cmd.Process.Pid

	seeds := make([]uint64, daemonSeeds)
	for j := range seeds {
		seeds[j] = sampling.MixSeed(cfg.seed, keyDaemon, uint64(j))
	}

	// The daemon's peak RSS is read per one-second window and reported as
	// the median window.
	var rss []float64
	stopRSS, rssDone := make(chan struct{}), make(chan struct{})
	clearPeakRSS(pid)
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-tick.C:
				rss = append(rss, peakRSSMB(pid))
				clearPeakRSS(pid)
			}
		}
	}()

	before, err := scrape(client, ds.d.base)
	if err != nil {
		return err
	}
	cpuBefore, err := procCPU(pid)
	if err != nil {
		return err
	}
	loop := openLoop{start: time.Now().Add(50 * time.Millisecond), rate: daemonRate}
	end := loop.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var reqs []*request
	var wg sync.WaitGroup
	for i := 0; loop.due(i).Before(end); i++ {
		// Graphs and seeds take turns, so every run offers the same mix of
		// (graph, seed) pairs and each pair repeats.
		r := &request{graph: i % len(ds.graphs), seed: seeds[(i/len(ds.graphs))%len(seeds)]}
		reqs = append(reqs, r)
		time.Sleep(time.Until(loop.due(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.do(client, ds.d.base, ds.graphs[r.graph])
		}()
	}
	wg.Wait()
	cpuAfter, err := procCPU(pid)
	if err != nil {
		return err
	}
	after, err := scrape(client, ds.d.base)
	if err != nil {
		return err
	}
	close(stopRSS)
	<-rssDone

	// Every complete reply must match EstimateFile on the same file and
	// seed, bit for bit (repeats therefore match each other).
	type key struct {
		graph int
		seed  uint64
	}
	want := map[key]float64{}
	var latency, elapsed, wait, late, space, relErr []float64
	var refused, within int
	lastDone := loop.start
	for i, r := range reqs {
		late = append(late, ms(loop.lateness(i, r.sent)))
		o := r.outcome(rep)
		if o == outcomeOK {
			k := key{r.graph, r.seed}
			w, ok := want[k]
			if !ok {
				ref, err := triangle.EstimateFile(ds.graphs[r.graph].path, triangle.Options{Seed: r.seed, MaxSpaceWords: daemonBudget})
				if err != nil {
					return err
				}
				w = ref.Estimate
				want[k] = w
			}
			if math.Float64bits(w) != math.Float64bits(r.reply.Estimate) {
				rep.fail("daemon %s seed %d: estimate %v, EstimateFile gives %v", daemonGraphs[r.graph], r.seed, r.reply.Estimate, w)
				o = outcomeBadCheck
			}
		}
		rep.tally.add(o)
		if o == outcomeRefused {
			refused++
		}
		if o != outcomeOK {
			continue
		}
		if r.done.After(lastDone) {
			lastDone = r.done
		}
		e := math.Abs(r.reply.Estimate-float64(ds.graphs[r.graph].exactT)) / float64(ds.graphs[r.graph].exactT)
		relErr = append(relErr, e)
		if e <= shippedEpsilon {
			within++
		}
		latency = append(latency, ms(loop.latency(i, r.done)))
		elapsed = append(elapsed, r.reply.ElapsedMS)
		wait = append(wait, ms(r.done.Sub(r.sent))-r.reply.ElapsedMS)
		space = append(space, float64(r.reply.SpaceWords))
	}
	if len(latency) == 0 {
		return fmt.Errorf("no request completed")
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	scans, carried := delta("triangled_graph_scans_total"), delta("triangled_graph_carried_total")
	answered := float64(len(latency))

	rep.set("cpu_ms_per_answer", ms(cpuAfter-cpuBefore)/answered)
	rep.set("ok_frac", 1-rep.tally.failFrac())
	rep.set("scans_per_answer", scans/answered)
	rep.set("space_words.p50", median(space))
	rep.set("process.peak_rss_mb", median(rss))
	if cfg.trace {
		rep.set("answer_ms.p50", median(latency))
		rep.setTail("answer_ms.tail", latency)
		// Below saturation this is the offered rate; a daemon that falls
		// behind finishes its last answer late and reads lower.
		rep.set("answers_per_s", answered/lastDone.Sub(loop.start).Seconds())
		hits, misses := delta("triangled_decode_cache_hits_total"), delta("triangled_decode_cache_misses_total")
		if hits+misses > 0 {
			rep.set("stream.decode_cache.hit_ratio", hits/(hits+misses))
		}
		rep.set("stream.decode_cache.evictions", delta("triangled_decode_cache_evictions_total"))
		if scans > 0 {
			rep.set("sched.carried_per_scan", carried/scans)
		}
		rep.set("sched.scans_per_request", scans/answered)
		rep.set("server.elapsed_ms.p50", median(elapsed))
		rep.set("server.wait_ms.p50", median(wait))
		rep.set("server.shed_frac", float64(refused)/float64(len(reqs)))
		rep.set("loadgen.late_ms.max", maxOf(late))
		rep.set("quality.rel_err.p50", median(relErr))
		rep.set("quality.within_eps_frac", float64(within)/answered)
		// The daemon is observed only through HTTP, so the traced run does
		// the same work as the untraced one.
		rep.set("trace.overhead", 0)
	}
	return nil
}
