package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchResult is the result line a run prints last.
type benchResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchSpec is the part of BENCHMARK.json the tests compare against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBench runs the benchmark in-process for a short measured window and
// returns its result line.
func runBench(t *testing.T, args ...string) benchResult {
	t.Helper()
	args = append(args, "--seconds", "0.2", "--spans", filepath.Join(t.TempDir(), "spans.json"))
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res benchResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d", args, res.Correct, res.Attempted)
	}
	return res
}

// TestSpecMatchesTables keeps BENCHMARK.json and the metric tables the
// benchmark reports from in step.
func TestSpecMatchesTables(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %q (%s), benchmark has %q (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, benchmark has %d", len(spec.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark has %+v", i, m.Name, m.Unit, m.Better, d)
		}
		largest = math.Max(largest, m.Bound)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, benchmark has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark has %+v", i, m.Name, m.Unit, m.Better, d)
		}
	}
}

// TestShortRunEmitsEveryMetric runs every workload briefly, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json lists, each with its unit.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	units := func(trace bool) map[string]string {
		out := map[string]string{}
		if trace {
			for _, m := range spec.PerLayer {
				out[m.Name] = m.Unit
			}
		} else {
			for _, m := range spec.EndToEnd {
				out[m.Name] = m.Unit
			}
		}
		return out
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				res := runBench(t, "--workload", w.Name, "--seed", "3", "--trace", trace)
				want := units(trace == "1")
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if u, ok := want[name]; !ok {
						t.Errorf("unlisted metric %s", name)
					} else if m.Unit != u {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, u)
					}
				}
				if len(got) != len(want) {
					sort.Strings(got)
					t.Errorf("got %d metrics %v, want %d", len(got), got, len(want))
				}
			})
		}
	}
}

// TestCPUProfile checks that --cpuprofile writes a profile.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	runBench(t, "--workload", "serve", "--trace", "0", "--cpuprofile", path)
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile: %v", err)
	}
}

// TestExactCountsRepeat checks that the counts a later change may claim a
// gain on repeat bit for bit between two runs at one seed.
func TestExactCountsRepeat(t *testing.T) {
	for workload, names := range map[string][]string{
		"synth": {"mapper.nodes", "synth.area_um2"},
		"simulate": {"mna.exact.newton_iters", "mna.exact.factorizations",
			"mna.fast.newton_iters", "mna.fast.factorizations"},
	} {
		a := runBench(t, "--workload", workload, "--seed", "5", "--trace", "1")
		b := runBench(t, "--workload", workload, "--seed", "5", "--trace", "1")
		for _, name := range names {
			x, y := a.Metrics[name].Value, b.Metrics[name].Value
			if x == 0 || math.Float64bits(x) != math.Float64bits(y) {
				t.Errorf("%s %s: %v then %v", workload, name, x, y)
			}
		}
	}
}
