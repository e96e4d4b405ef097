// Command perfbench is the repository benchmark: it drives the VASE layers
// from outside — parser, sema, compile, lint, absint, mapper, netlist, sim
// and mna through their Go APIs, and an in-process vased server over
// loopback HTTP — on one of three seeded workloads, checks the outputs, and
// prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload synth --seed 1 --seconds 30 --trace 0
//
// Workloads (see workloads below for why each exists):
//
//	synth     cold sequential synthesis of a pinned spec set
//	simulate  Figure 8 on four engines plus generated netlists on both MNA tiers
//	serve     a closed loop of 2 clients against an in-process vased
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose spans
// are written to --spans (default .bench_build/spans-<workload>-<seed>.json
// under the current directory). Earlier stdout lines are a human-readable
// report: host, revision, seed, counts and every workload-specific metric.
// --cpuprofile writes a CPU profile of the measured region.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times each workload sets up per run; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 7

// workload is one input set the benchmark runs.
type workload struct {
	name string
	// why records, for the report, why the workload exists and which
	// layers it loads.
	why string
	// run sets the workload up setupRepeats times, measures it for the
	// given duration, checks its outputs and fills r.
	run func(cfg config, r *result) error
}

var workloads = []workload{
	{"synth",
		"Cold Workers=1 synthesis of a pinned set (Table 1, complete small specs, medium specs at a fixed node budget): loads the mapper, >95% of the work, and not the caches.",
		runSynth},
	{"simulate",
		"Figure 8 on four engines plus pinned generated netlists (dim 17 to 316) on both MNA tiers: loads sim and mna, where the fast tier stops winning; no mapper.",
		runSimulate},
	{"serve",
		"Closed loop of 2 clients against in-process vased (lint/parse on distinct specs, synthesize with a repeat share, simulate): loads the pipeline cache and server paths.",
		runServe},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// cpuProfile, when set, receives a CPU profile of the measured region.
	cpuProfile *os.File
}

// metric is one named, unit-carrying measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates a run's outcome.
type result struct {
	attempted, failed int
	// checkFailures lists failed output checks; any makes correct false.
	checkFailures []string
	// endToEnd holds the metrics of an untraced run, perLayer those of a
	// traced run; an untraced run prints the per-layer values it has in its
	// report.
	endToEnd, perLayer map[string]metric
	notes              []string
	tracer             *tracer
	// ref samples the host's speed; cpuScaled scales CPU times by it.
	ref *hostRef
}

func (r *result) checkf(format string, args ...any) {
	r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
}

func (r *result) e2e(name string, v float64, unit string) { r.endToEnd[name] = metric{v, unit} }
func (r *result) layer(name string, v float64, unit string) {
	r.perLayer[name] = metric{v, unit}
}

// cpuScaled records a CPU-time metric, scaled to the reference host's
// usual speed, and its unscaled value under the per-layer name raw.
func (r *result) cpuScaled(name string, v float64, unit, raw string) {
	r.e2e(name, v*r.ref.scale(), unit)
	r.layer(raw, v, unit)
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: synth, simulate or serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured duration per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>-<seed>.json)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measured region to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload synth|simulate|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans-%s-%d.json", *name, *seed)
	}
	// Every workload runs on one processor, the serve workload's clients
	// and server too. Process CPU time then holds no garbage-collector or
	// scheduler work done on an otherwise idle second processor, whose
	// amount varies with scheduling, and the host-speed reference runs where
	// the measured work runs.
	runtime.GOMAXPROCS(1)

	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "perfbench: cpu profile: %v\n", err)
			}
		}()
		cfg.cpuProfile = f
	}
	ref, err := newHostRef()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := &result{endToEnd: map[string]metric{}, perLayer: map[string]metric{}, tracer: newTracer(cfg.trace), ref: ref}
	if err := wl.run(cfg, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	r.e2e("peak_rss_mb", peakRSSMB(), "MB")
	r.layer("cpu.ref_ms", median(r.ref.samples), "ms")
	r.notef("host reference: %d samples, median %.4g ms CPU, scale %.4g", len(r.ref.samples), median(r.ref.samples), r.ref.scale())
	metrics := r.endToEnd
	if cfg.trace {
		r.layer("trace.spans", float64(len(r.tracer.spans)), "count")
		if err := r.tracer.write(*spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		r.notef("spans written to %s", *spans)
		metrics = r.perLayer
	}
	if err := r.complete(cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, c := range r.checkFailures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", c)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.checkFailures) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	report(w, cfg, wl, r)
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(r.checkFailures) > 0 {
		return 1
	}
	return 0
}

// measure runs the measured region of a workload, under the CPU profiler
// when one was requested.
func measure(cfg config, fn func() error) error {
	if cfg.cpuProfile != nil {
		if err := pprof.StartCPUProfile(cfg.cpuProfile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	return fn()
}

// report prints the human-readable lines that precede the result line.
func report(w *bufio.Writer, cfg config, wl *workload, r *result) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "why: %s\n", wl.why)
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s revision=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), revision())
	fmt.Fprintf(w, "operations: attempted=%d failed=%d fail_ratio=%.6g\n",
		r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, set := range []map[string]metric{r.endToEnd, r.perLayer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "metric %-34s %16.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

// revision is the VCS revision the binary was built from, when the build
// ran inside a git work tree.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	return rev + modified
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// deadline is the end of the measured window that starts now.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
