// Golden search pin: the sequential branch-and-bound's observable outcome —
// search statistics, the exact bits of the best area, and a digest of the
// encoded netlist — over the corpus and a pinned set of generated specs
// under every ablation, plus the traced Figure 6 decision trees. Any change
// to the search state's representation must leave these files untouched.
package mapper_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"vase/internal/corpus"
	"vase/internal/gen"
	"vase/internal/mapper"
	"vase/internal/vhif"
)

// goldenGenBudget is the node budget of every generated spec in the pin:
// the medium specs all end at it, so the pin also covers truncation.
const goldenGenBudget = 20000

type goldenSpec struct {
	name  string
	m     *vhif.Module
	small bool // NoBounding is pinned only where the full tree is small
	max   int  // Options.MaxNodes (0 = the default budget)
}

func goldenSpecs(t testing.TB) []goldenSpec {
	t.Helper()
	var out []goldenSpec
	for _, nm := range corpusModules(t) {
		out = append(out, goldenSpec{name: nm.key, m: nm.m, small: true})
	}
	type ref struct {
		seed  int64
		index int
		size  gen.Size
	}
	for _, r := range []ref{
		{1, 1, gen.SizeSmall}, {1, 2, gen.SizeSmall}, {1, 3, gen.SizeSmall}, {1, 4, gen.SizeSmall},
		{3, 2, gen.SizeSmall}, {3, 5, gen.SizeSmall}, {3, 7, gen.SizeSmall},
		{1, 0, gen.SizeMedium}, {1, 1, gen.SizeMedium}, {1, 2, gen.SizeMedium},
	} {
		sp := gen.Generate(r.seed, r.index, r.size)
		m, err := gen.CompileSpec(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		out = append(out, goldenSpec{
			name:  fmt.Sprintf("gen-%d-%d-%s", r.seed, r.index, r.size),
			m:     m,
			small: r.size == gen.SizeSmall,
			max:   goldenGenBudget,
		})
	}
	return out
}

var goldenOptions = []struct {
	name      string
	smallOnly bool
	mut       func(*mapper.Options)
}{
	{"default", false, func(o *mapper.Options) {}},
	{"nosharing", false, func(o *mapper.Options) { o.NoSharing = true }},
	{"strongbound", false, func(o *mapper.Options) { o.StrongBound = true }},
	{"nosequencing", false, func(o *mapper.Options) { o.NoSequencing = true }},
	{"nobounding", true, func(o *mapper.Options) { o.NoBounding = true }},
	{"power", false, func(o *mapper.Options) { o.Objective = mapper.MinimizePower }},
}

// goldenLine renders one sequential synthesis as a single comparable line.
func goldenLine(name string, m *vhif.Module, opts mapper.Options) string {
	res, err := mapper.Synthesize(m, opts)
	if err != nil {
		return fmt.Sprintf("%s err=%q", name, err.Error())
	}
	enc, err := res.Netlist.Encode()
	if err != nil {
		return fmt.Sprintf("%s encode-err=%q", name, err.Error())
	}
	st := res.Stats
	return fmt.Sprintf("%s nodes=%d complete=%d pruned=%d infeasible=%d opamps=%d area=%016x nonoptimal=%t netlist=%x",
		name, st.NodesVisited, st.CompleteMappings, st.Pruned, st.Infeasible, st.BestOpAmps,
		math.Float64bits(st.BestAreaUm2), res.Nonoptimal, sha256.Sum256([]byte(enc)))
}

// goldenSearchText renders every pinned (spec, option set) pair.
func goldenSearchText(t testing.TB) string {
	var b strings.Builder
	for _, sp := range goldenSpecs(t) {
		for _, o := range goldenOptions {
			if o.smallOnly && !sp.small {
				continue
			}
			opts := mapper.DefaultOptions()
			opts.Workers = 1
			opts.MaxNodes = sp.max
			o.mut(&opts)
			b.WriteString(goldenLine(sp.name+"/"+o.name, sp.m, opts))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// goldenTreeText renders the traced Figure 6 runs — the full (unbounded)
// decision tree and the bounded one — and digests of larger traced trees.
func goldenTreeText(t testing.TB) string {
	var b strings.Builder
	for _, bounded := range []bool{false, true} {
		opts := mapper.DefaultOptions()
		opts.Workers = 1
		opts.Trace = true
		opts.NoBounding = !bounded
		res, err := mapper.Synthesize(corpus.Figure6Module(), opts)
		if err != nil {
			t.Fatalf("figure 6 (bounded=%t): %v", bounded, err)
		}
		fmt.Fprintf(&b, "== figure 6, bounded=%t, %d nodes, %d pruned\n", bounded, res.Stats.NodesVisited, res.Stats.Pruned)
		b.WriteString(mapper.FormatTree(res.Tree))
	}
	// Larger traced trees, pinned by digest: sharing decisions (absent
	// from Figure 6), pruned leaves, and the parallel splitter's interior
	// nodes (deterministic without bounding).
	for _, r := range []struct {
		seed, index, workers int
		noBounding           bool
	}{{1, 1, 1, false}, {3, 5, 1, false}, {1, 1, 3, true}} {
		sp := gen.Generate(int64(r.seed), r.index, gen.SizeSmall)
		m, err := gen.CompileSpec(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		opts := mapper.DefaultOptions()
		opts.Workers = r.workers
		opts.Trace = true
		opts.NoBounding = r.noBounding
		res, err := mapper.Synthesize(m, opts)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		tree := mapper.FormatTree(res.Tree)
		fmt.Fprintf(&b, "== gen-%d-%d-small workers=%d nobounding=%t: %d nodes, %d lines, %d share, tree=%x\n",
			r.seed, r.index, r.workers, r.noBounding, res.Stats.NodesVisited,
			strings.Count(tree, "\n"), strings.Count(tree, "+ share "), sha256.Sum256([]byte(tree)))
	}
	return b.String()
}

// compareGolden reports every line of got that differs from the pinned
// file, printing the full replacement line so a deliberate change to the
// search can be re-pinned by hand.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) != len(have) {
		t.Errorf("%s: %d lines, want %d", path, len(have), len(want))
	}
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Errorf("%s:%d:\n got  %s\n want %s", path, i+1, have[i], want[i])
		}
	}
}

func TestGoldenSearch(t *testing.T) {
	compareGolden(t, "testdata/golden_search.txt", goldenSearchText(t))
}

func TestGoldenTraces(t *testing.T) {
	compareGolden(t, "testdata/golden_traces.txt", goldenTreeText(t))
}
