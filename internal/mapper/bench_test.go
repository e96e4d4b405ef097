package mapper_test

import (
	"testing"

	"vase/internal/gen"
	"vase/internal/mapper"
	"vase/internal/vhif"
)

// BenchmarkMapperNodes measures search throughput: sequential synthesis of
// the three pinned medium specs (generator seed 1, indices 0..2), each
// ending at a 20000-node budget, reported as nodes visited per second.
func BenchmarkMapperNodes(b *testing.B) {
	var mods []*vhif.Module
	for idx := 0; idx < 3; idx++ {
		m, err := gen.CompileSpec(gen.Generate(1, idx, gen.SizeMedium))
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, m)
	}
	opts := mapper.DefaultOptions()
	opts.Workers = 1
	opts.MaxNodes = 20000
	nodes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			res, err := mapper.Synthesize(m, opts)
			if err != nil {
				b.Fatal(err)
			}
			nodes += res.Stats.NodesVisited
		}
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
}
