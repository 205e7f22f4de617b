// Command perfbench is the repository benchmark. Its unit of cost is one
// user-visible answer — a default triangle.EstimateFile call or one
// triangled /estimate request — measured end to end, with a separate traced
// run attributing that cost to the library's layers.
//
// Usage (from the repository root; run.sh builds and calls this):
//
//	perfbench --workload planar-scan --seed 3 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end set,
// with --trace 1 the per-layer set. The exit code is nonzero when any
// correctness check failed or the run could not complete. README.md in this
// directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runConfig holds the benchmark's own arguments. None of them reaches the
// program under test except through the inputs the benchmark generates.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	workDir   string // generated inputs and the trace file
	triangled string // daemon binary for daemon-fused
}

// report is what one run measured: metric values by name, plus notes for the
// human-readable table (such as the percentile a tail value sits at).
type report struct {
	values map[string]float64
	notes  map[string]string
	tally  tally
	checks []string // failed correctness checks
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// setTail records the tail of a latency sample and the percentile it sits
// at.
func (r *report) setTail(name string, xs []float64) {
	v, p := tail(xs)
	r.set(name, v)
	r.notes[name] = fmt.Sprintf("p%.1f of n=%d", p, len(xs))
}

type workload struct {
	name string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"skewed-facade", runSkewedFacade},
	{"planar-scan", runPlanarScan},
	{"text-ingest", runTextIngest},
	{"daemon-fused", runDaemonFused},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input shuffle and estimator seed derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&cfg.workDir, "work", ".perfbench", "directory for generated inputs and the trace file")
	flag.StringVar(&cfg.triangled, "triangled", filepath.Join(".bench_build", "triangled"), "triangled binary (daemon-fused)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatalf("unknown --workload %q (want one of %s)", cfg.workload, workloadNames())
	}

	cfg.workDir = filepath.Join(cfg.workDir, cfg.workload)
	if err := os.RemoveAll(cfg.workDir); err != nil {
		fatalf("clear work directory: %v", err)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatalf("create work directory: %v", err)
	}
	rep := newReport()
	if err := w.run(cfg, rep); err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	// Drop the generated inputs; a traced run's span file stays.
	inputs, _ := filepath.Glob(filepath.Join(cfg.workDir, "setup-*"))
	for _, dir := range inputs {
		os.RemoveAll(dir)
	}
	if err := emit(cfg, rep); err != nil {
		fatalf("%v", err)
	}
	if len(rep.checks) > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// emit prints the human-readable table and then, as the last line, the JSON
// result holding exactly the metric set of the run's mode.
func emit(cfg runConfig, rep *report) error {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	for _, c := range rep.checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	fmt.Printf("workload %s seed %d trace %v: attempted %d failed %d fail_frac %.4f\n",
		cfg.workload, cfg.seed, cfg.trace, rep.tally.attempted(), rep.tally.failed(), rep.tally.failFrac())
	out := resultOut{
		Correct:   len(rep.checks) == 0,
		Attempted: rep.tally.attempted(),
		Failed:    rep.tally.failed(),
		Metrics:   map[string]metricOut{},
	}
	for _, s := range specs {
		v, ok := rep.values[s.name]
		note := rep.notes[s.name]
		if !ok {
			note = "not exercised by this workload"
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", s.name)
		}
		fmt.Printf("  %-34s %14.6g %-6s %s\n", s.name, v, s.unit, note)
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	var extra []string
	for name := range rep.values {
		if !hasMetric(endToEnd, name) && !hasMetric(perLayer, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return fmt.Errorf("metrics missing from the declared set: %s", strings.Join(extra, ", "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func hasMetric(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}
