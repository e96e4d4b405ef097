package mapper_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"vase/internal/gen"
	"vase/internal/mapper"
)

// TestSearchAllocsIndependentOfNodes pins the allocation-free search: a
// synthesis allocates for its set-up (candidates, cost table, search
// state) and for the final netlist, but nothing per visited node, so
// quadrupling the node budget of a capped medium spec must not change the
// allocation count at all. Both budgets end at the same best mapping.
func TestSearchAllocsIndependentOfNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	m, err := gen.CompileSpec(gen.Generate(1, 0, gen.SizeMedium))
	if err != nil {
		t.Fatal(err)
	}
	// A GC cycle empties sync.Pool caches (fmt's printers among them), so
	// where cycles fall would add a few allocations that depend on timing,
	// not on the search. Measure with the collector off.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(maxNodes int) float64 {
		opts := mapper.DefaultOptions()
		opts.Workers = 1
		opts.MaxNodes = maxNodes
		var res *mapper.Result
		n := testing.AllocsPerRun(2, func() {
			res, err = mapper.SynthesizeContext(context.Background(), m, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.NodesVisited != maxNodes {
			t.Fatalf("MaxNodes=%d: visited %d nodes, want the search to end at the cap", maxNodes, res.Stats.NodesVisited)
		}
		return n
	}
	small, large := count(10000), count(40000)
	if small != large {
		t.Errorf("allocations depend on the node count: %.0f at 10000 nodes, %.0f at 40000", small, large)
	}
}
