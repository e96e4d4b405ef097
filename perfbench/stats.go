package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// passLatencies collects the wall-clock latency quantiles of each pass of
// a batch workload. The workload reports the median over passes of each
// quantile, which one slow operation in one pass cannot move.
type passLatencies struct {
	p50, p99 []float64
	samples  int
}

func addPass[T any](p *passLatencies, ops []T, latency func(T) time.Duration) {
	ms := make([]float64, len(ops))
	for i, op := range ops {
		ms[i] = millis(latency(op))
	}
	p.p50 = append(p.p50, quantile(ms, 0.50))
	p.p99 = append(p.p99, quantile(ms, 0.99))
	p.samples += len(ms)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far, in all its threads.
// Unlike wall time it does not run on while the host gives this machine's
// processors to other work, which on a shared host moves wall times by tens
// of percent between runs of the same code.
func cpuTime() time.Duration { return clockCPU(clockProcessCPUTime) }

// mallocs is the cumulative number of heap objects allocated by the
// process (runtime.MemStats.Mallocs).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB is the process's peak resident set size (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// timeSetup runs setup setupRepeats times and returns the last set-up's
// value with the median set-up time, in CPU seconds, and samples the
// host's speed before each set-up. Earlier values are
// discarded through release, which must free what they hold (servers,
// listeners).
func timeSetup[T any](ref *hostRef, setup func() (T, error), release func(T)) (T, float64, error) {
	var v T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(v)
		}
		ref.sample()
		start := cpuTime()
		var err error
		v, err = setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, seconds(cpuTime()-start))
	}
	return v, median(times), nil
}

// minPasses is the fewest passes a run makes: a traced run needs an
// untraced and a traced one.
func minPasses(cfg config) int {
	if cfg.trace {
		return 2
	}
	return 1
}
