package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"vase/internal/absint"
	"vase/internal/assertlang"
	"vase/internal/compile"
	"vase/internal/corpus"
	"vase/internal/gen"
	"vase/internal/lint"
	"vase/internal/mapper"
	"vase/internal/netlist"
	"vase/internal/parser"
	"vase/internal/sema"
	"vase/internal/sim"
	"vase/internal/vhif"
)

// nodeBudget is the mapper node budget (mapper.Options.MaxNodes) of every
// synthesis the benchmark runs directly. It is far below the mapper's 2^22
// default so that a medium spec ends in well under a second, and it must
// stay the same on every commit so that wall times compare like for like.
const nodeBudget = 20000

// specRef names a generated spec by its generator coordinates.
type specRef struct {
	seed  int64
	index int
	size  gen.Size
}

// The synth set's generated specs are pinned, not drawn from the workload
// seed: search cost varies by orders of magnitude between specs, so only a
// fixed set gives a wall time that compares across runs. The small specs
// are ones whose search completes within nodeBudget; the medium specs all
// end at it.
var (
	synthSmall = []specRef{
		{1, 1, gen.SizeSmall}, {1, 2, gen.SizeSmall}, {1, 4, gen.SizeSmall},
		{3, 2, gen.SizeSmall}, {3, 5, gen.SizeSmall}, {3, 7, gen.SizeSmall},
		{4, 0, gen.SizeSmall},
	}
	synthMedium = []specRef{
		{1, 0, gen.SizeMedium}, {1, 1, gen.SizeMedium}, {1, 2, gen.SizeMedium},
	}
)

// synthInput is one spec of a synthesis set.
type synthInput struct {
	name, text string
	// app is the Table 1 application, nil for a generated spec.
	app *corpus.Application
	// spec is the generated spec, nil for a Table 1 application.
	spec *gen.Spec
	// capped marks a spec whose search must end at nodeBudget.
	capped bool
}

// synthOutput is what one synthesis produced.
type synthOutput struct {
	encoded string
	module  *vhif.Module
	netlist *netlist.Netlist
	row     corpus.Row
	area    float64
	opamps  int
	stats   mapper.Stats
	capped  bool
	latency time.Duration
}

func table1Inputs() []*synthInput {
	var out []*synthInput
	for _, app := range corpus.Applications() {
		out = append(out, &synthInput{name: app.Key + ".vhd", text: app.Source, app: app})
	}
	return out
}

func generatedInput(ref specRef, capped bool) *synthInput {
	sp := gen.Generate(ref.seed, ref.index, ref.size)
	return &synthInput{name: sp.Name + ".vhd", text: sp.Source, spec: sp, capped: capped}
}

// synthOne takes one spec through parse, sema, compile, lint, absint,
// mapper and netlist encoding, with a span around each layer call. The
// search is sequential (Workers=1), so its result and node count are exact.
func synthOne(t *tracer, trace int64, in *synthInput) (*synthOutput, error) {
	ctx := context.Background()
	start := time.Now()
	root := t.begin(trace, 0, "spec", false)
	defer root.end()
	call := func(name string, fn func() error) error {
		s := t.begin(trace, root.id(), name, true)
		err := fn()
		s.end()
		if err != nil {
			return fmt.Errorf("%s: %s: %w", in.name, name, err)
		}
		return nil
	}
	out := &synthOutput{}
	var d *sema.Design
	var res *mapper.Result
	err := call("parser", func() error {
		df, err := parser.Parse(in.name, in.text)
		if err != nil {
			return err
		}
		return call("sema", func() error {
			d, err = sema.AnalyzeOne(df)
			return err
		})
	})
	if err == nil {
		err = call("compile", func() error {
			m, err := compile.Compile(d)
			if err != nil {
				return err
			}
			out.module = m
			return m.Validate()
		})
	}
	if err == nil {
		err = call("lint", func() error {
			_, err := lint.CheckSourceContext(ctx, in.name, in.text, lint.Options{})
			return err
		})
	}
	if err == nil {
		err = call("absint", func() error {
			absint.Analyze(out.module)
			return nil
		})
	}
	if err == nil {
		err = call("mapper", func() error {
			opts := mapper.DefaultOptions()
			opts.Workers = 1
			opts.MaxNodes = nodeBudget
			var err error
			res, err = mapper.SynthesizeContext(ctx, out.module, opts)
			return err
		})
	}
	if err == nil {
		err = call("netlist.encode", func() error {
			var err error
			out.encoded, err = res.Netlist.Encode()
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	m := out.module
	out.netlist = res.Netlist
	out.row = corpus.Row{
		ContinuousLines: d.Stats.ContinuousLines, Quantities: d.Stats.QuantityCount,
		EventLines: d.Stats.EventLines, Signals: d.Stats.SignalCount,
		Blocks: m.BlockCount(), States: m.StateCount(), Datapath: m.DatapathCount(),
		Synthesis: res.Netlist.Summary(),
	}
	out.area = res.Report.AreaUm2
	out.opamps = res.Netlist.OpAmpCount()
	out.stats = res.Stats
	out.capped = res.Nonoptimal
	out.latency = time.Since(start)
	return out, nil
}

// checkSynth checks one pass's outputs: Table 1 rows against the paper,
// the search outcome each spec was pinned for, and every generated netlist
// against its spec's derived assert pragmas at netlist level.
func checkSynth(r *result, ins []*synthInput, outs []*synthOutput) {
	for i, in := range ins {
		out := outs[i]
		if out.capped != in.capped {
			r.checkf("%s: search capped=%v, pinned as capped=%v", in.name, out.capped, in.capped)
		}
		if in.app != nil {
			checkTable1(r, in.app, out.row)
			continue
		}
		sp := in.spec
		ms := assertlang.Monitors(sp.Asserts)
		tr, err := sim.SimulateNetlist(out.netlist, sp.Sources(), sim.Options{
			TStop: sp.TStop, TStep: sp.TStep, OnSample: assertlang.StreamSim(ms),
		})
		if err != nil {
			r.checkf("%s: netlist simulation: %v", in.name, err)
			continue
		}
		for _, o := range assertlang.FinishAll(ms, tr.Truncated) {
			if o.Verdict != assertlang.Pass {
				r.checkf("%s: derived assertion %q: %v (%s)", in.name, o.Assertion.Text, o.Verdict, o.Detail)
			}
		}
	}
}

// checkTable1 compares a reproduced Table 1 row with the paper's: every
// count must match, and the component mix of the synthesis summary too
// (in any order) unless the application documents a deviation.
func checkTable1(r *result, app *corpus.Application, got corpus.Row) {
	want := app.Expected
	if len(app.Deviations) > 0 || sameParts(got.Synthesis, want.Synthesis) {
		got.Synthesis, want.Synthesis = "", ""
	}
	if got != want {
		r.checkf("Table 1 %s: got %+v, paper %+v", app.Key, got, want)
	}
}

// sameParts reports whether two synthesis summaries list the same
// components, ignoring order and the paper's "(reduced)" annotation.
func sameParts(a, b string) bool {
	parts := func(s string) []string {
		p := strings.Split(strings.TrimSpace(strings.TrimSuffix(s, "(reduced)")), ", ")
		sort.Strings(p)
		return p
	}
	return slices.Equal(parts(a), parts(b))
}

type synthSet struct {
	ins []*synthInput
	rng *rand.Rand
}

func newSynthSet(seed int64) (*synthSet, error) {
	ins := table1Inputs()
	for _, ref := range synthSmall {
		ins = append(ins, generatedInput(ref, false))
	}
	for _, ref := range synthMedium {
		ins = append(ins, generatedInput(ref, true))
	}
	// Set-up synthesis: one warm-up pass fills the process's estimator memo,
	// which a long-lived synthesis process would have warm.
	s := &synthSet{ins: ins, rng: rand.New(rand.NewSource(seed))}
	var trace int64
	if _, _, _, err := s.pass(nil, nil, &trace); err != nil {
		return nil, err
	}
	return s, nil
}

// pass synthesizes the whole set once, in an order drawn from the seed,
// and returns the outputs in set order with the pass's wall and CPU time.
// It samples the host's speed before each spec, outside the times.
func (s *synthSet) pass(ref *hostRef, t *tracer, trace *int64) (outs []*synthOutput, wall, cpu time.Duration, err error) {
	order := s.rng.Perm(len(s.ins))
	outs = make([]*synthOutput, len(s.ins))
	for _, i := range order {
		ref.sample()
		*trace++
		start, cpu0 := time.Now(), cpuTime()
		out, err := synthOne(t, *trace, s.ins[i])
		if err != nil {
			return nil, 0, 0, err
		}
		wall += time.Since(start)
		cpu += cpuTime() - cpu0
		outs[i] = out
	}
	return outs, wall, cpu, nil
}

func runSynth(cfg config, r *result) error {
	set, setupS, err := timeSetup(r.ref, func() (*synthSet, error) { return newSynthSet(cfg.seed) }, func(*synthSet) {})
	if err != nil {
		return err
	}
	var (
		first         []*synthOutput
		plain, traced []float64
		// CPU time and operations of the untraced passes.
		cpuSum  time.Duration
		cpuOps  int
		lat     passLatencies
		traceID int64
	)
	err = measure(cfg, func() error {
		end := deadline(cfg)
		for n := 0; n < minPasses(cfg) || time.Now().Before(end); n++ {
			// A traced run alternates untraced and traced passes, so the
			// tracing overhead is measured within one run.
			var t *tracer
			if cfg.trace && n%2 == 1 {
				t = r.tracer
			}
			outs, wall, cpu, err := set.pass(r.ref, t, &traceID)
			if err != nil {
				return err
			}
			r.attempted += len(outs)
			if first == nil {
				first = outs
			}
			for i, out := range outs {
				if out.encoded != first[i].encoded {
					r.failed++
					r.checkf("%s: netlist differs between passes", set.ins[i].name)
				}
			}
			if t != nil {
				traced = append(traced, seconds(wall))
				continue
			}
			plain = append(plain, seconds(wall))
			cpuSum, cpuOps = cpuSum+cpu, cpuOps+len(outs)
			addPass(&lat, outs, func(o *synthOutput) time.Duration { return o.latency })
		}
		return nil
	})
	if err != nil {
		return err
	}
	checkSynth(r, set.ins, first)

	var area float64
	var nodes, pruned, capped, opamps, blocks int
	for _, out := range first {
		area += out.area
		nodes += out.stats.NodesVisited
		pruned += out.stats.Pruned
		opamps += out.opamps
		blocks += out.module.BlockCount()
		if out.capped {
			capped++
		}
	}
	r.cpuScaled("setup_s", setupS, "s", "cpu.setup_s")
	r.cpuScaled("cpu_ms_per_op", millis(cpuSum)/float64(cpuOps), "ms", "cpu.ms_per_op")
	r.e2e("area_um2", area, "um2")
	r.layer("wall.ops_per_s", float64(len(set.ins))/median(plain), "1/s")
	r.layer("wall.p50_ms", median(lat.p50), "ms")
	r.layer("wall.p99_ms", median(lat.p99), "ms")
	r.notef("passes=%d specs/pass=%d latency samples=%d node budget=%d", len(plain)+len(traced), len(set.ins), lat.samples, nodeBudget)

	r.layer("synth.wall_s", median(plain), "s")
	r.layer("synth.area_um2", area, "um2")
	n := float64(len(first))
	r.layer("vhif.blocks", float64(blocks)/n, "count")
	r.layer("mapper.nodes", float64(nodes), "count")
	r.layer("mapper.pruned_ratio", float64(pruned)/float64(nodes), "ratio")
	r.layer("mapper.capped_ratio", float64(capped)/n, "ratio")
	r.layer("netlist.opamps", float64(opamps), "count")
	if cfg.trace {
		layers := r.tracer.byName()
		for _, l := range []string{"parser", "sema", "compile", "lint", "absint", "mapper"} {
			r.layer(l+".ms", layers[l].meanMS(), "ms")
		}
		r.layer("netlist.encode_ms", layers["netlist.encode"].meanMS(), "ms")
		mp := layers["mapper"]
		passes := float64(len(traced))
		r.layer("mapper.allocs", float64(mp.allocs)/passes, "count")
		r.layer("mapper.nodes_per_s", float64(nodes)*passes/(float64(mp.selfNS)/1e9), "1/s")
		r.layer("trace.overhead_ratio", median(traced)/median(plain)-1, "ratio")
	}
	return nil
}
