package main

import "fmt"

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them, each as that workload's own operation: a spec synthesized
// (synth), a simulation run (simulate) or an HTTP request (serve). Times
// are CPU times of the whole process scaled to the reference host's speed
// (see ref.go): on a shared host wall times of the same code spread past
// any useful bound between runs, so the wall-clock figures (wall.*,
// serve.*) and the unscaled CPU times (cpu.*) are per-layer metrics,
// printed in every report.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"area_um2", "um2", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	// Wall-clock figures of every workload: operations completed per
	// second, and the median over passes (over the run, on serve) of the
	// latency quantiles.
	{"wall.ops_per_s", "1/s", "higher"},
	{"wall.p50_ms", "ms", "lower"},
	{"wall.p99_ms", "ms", "lower"},
	// Unscaled CPU times of the end-to-end metrics, and the median CPU time
	// of the host-speed reference they are scaled by.
	{"cpu.setup_s", "s", "lower"},
	{"cpu.ms_per_op", "ms", "lower"},
	{"cpu.ref_ms", "ms", "lower"},
	// Workload-level figures, named per workload.
	{"synth.wall_s", "s", "lower"},
	{"synth.area_um2", "um2", "lower"},
	{"simulate.fig8_behavioral_ms", "ms", "lower"},
	{"simulate.fig8_netlist_ms", "ms", "lower"},
	{"simulate.fig8_exact_ms", "ms", "lower"},
	{"simulate.fig8_fast_ms", "ms", "lower"},
	{"simulate.gen_exact_s", "s", "lower"},
	{"simulate.gen_fast_s", "s", "lower"},
	{"serve.rps", "1/s", "higher"},
	{"serve.p50_ms", "ms", "lower"},
	{"serve.p99_ms", "ms", "lower"},
	{"serve.requests", "count", "higher"},
	{"fail_ratio", "ratio", "lower"},
	// Front end.
	{"parser.ms", "ms", "lower"},
	{"sema.ms", "ms", "lower"},
	{"compile.ms", "ms", "lower"},
	{"lint.ms", "ms", "lower"},
	{"absint.ms", "ms", "lower"},
	{"vhif.blocks", "count", "lower"},
	// Architecture generation.
	{"mapper.ms", "ms", "lower"},
	{"mapper.nodes", "count", "lower"},
	{"mapper.nodes_per_s", "1/s", "higher"},
	{"mapper.pruned_ratio", "ratio", "higher"},
	{"mapper.capped_ratio", "ratio", "lower"},
	{"mapper.allocs", "count", "lower"},
	{"netlist.encode_ms", "ms", "lower"},
	{"netlist.opamps", "count", "lower"},
	// Behavioural and netlist-level simulation.
	{"sim.module_ms", "ms", "lower"},
	{"sim.module_allocs", "count", "lower"},
	{"sim.netlist_ms", "ms", "lower"},
	{"sim.netlist_allocs", "count", "lower"},
	// Circuit-level simulation.
	{"mna.elaborate_ms", "ms", "lower"},
	{"mna.exact.newton_iters", "count", "lower"},
	{"mna.exact.factorizations", "count", "lower"},
	{"mna.exact.allocs", "count", "lower"},
	{"mna.fast.newton_iters", "count", "lower"},
	{"mna.fast.factorizations", "count", "lower"},
	{"mna.fast.reuse_ratio", "ratio", "higher"},
	{"mna.fast.orderings", "count", "lower"},
	{"mna.fast.fallbacks", "count", "lower"},
	{"mna.fast.max_rel_err", "ratio", "lower"},
	{"mna.peak_dim", "count", "lower"},
	{"mna.fill", "count", "lower"},
	// The serving path.
	{"pipeline.hit_ratio", "ratio", "higher"},
	{"pipeline.shared", "count", "higher"},
	{"server.parse.p50_ms", "ms", "lower"},
	{"server.lint.p50_ms", "ms", "lower"},
	{"server.synthesize.p50_ms", "ms", "lower"},
	{"server.simulate.p50_ms", "ms", "lower"},
	{"server.shed", "count", "lower"},
	{"server.degraded_ratio", "ratio", "lower"},
	// The benchmark's own tracing.
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
}

// pipelineStages are the pipeline stages whose misses and compute time the
// serve workload reads from /metrics.
var pipelineStages = []string{"parse", "sema", "compile", "lint", "ranges", "map", "estimate", "netlist", "spice"}

func init() {
	for _, st := range pipelineStages {
		perLayer = append(perLayer,
			metricDef{"pipeline." + st + ".misses", "count", "lower"},
			metricDef{"pipeline." + st + ".compute_ms", "ms", "lower"})
	}
}

// complete checks that a workload set every end-to-end metric and fills
// each per-layer metric the workload bypasses with 0.
func (r *result) complete(trace bool) error {
	for _, m := range endToEnd {
		if _, ok := r.endToEnd[m.name]; !ok {
			return fmt.Errorf("workload did not measure %s", m.name)
		}
	}
	if trace {
		for _, m := range perLayer {
			if _, ok := r.perLayer[m.name]; !ok {
				r.perLayer[m.name] = metric{0, m.unit}
			}
		}
	}
	return nil
}
