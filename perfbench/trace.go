package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed layer call, recorded from the benchmark's side of the
// call. Spans of one spec or request share Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Allocs is the heap allocation count inside the span (a
	// runtime.MemStats delta), when the span counts allocations.
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer holds spans in memory until the run ends. A disabled tracer
// records nothing and costs one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// open is a span that has begun and not yet ended.
type open struct {
	t      *tracer
	s      span
	allocs bool
	m0     uint64
}

// begin starts a span; countAllocs adds a MemStats delta, which is only
// meaningful on a single-threaded workload.
func (t *tracer) begin(trace, parent int64, name string, countAllocs bool) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &open{t: t, s: span{ID: id, Parent: parent, Trace: trace, Name: name}, allocs: countAllocs}
	if countAllocs {
		o.m0 = mallocs()
	}
	o.s.Start = int64(time.Since(t.t0))
	return o
}

// id is the span's identifier, 0 for a disabled tracer.
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	if o.allocs {
		o.s.Allocs = mallocs() - o.m0
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	calls  int
	selfNS int64
	allocs uint64
}

func (l layerStats) meanMS() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.selfNS) / float64(l.calls) / 1e6
}

// byName aggregates spans per name. A span's self time is its duration
// minus the time its child spans cover; children of one parent run one
// after another, so that is the sum of their durations.
func (t *tracer) byName() map[string]layerStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerStats{}
	for _, s := range t.spans {
		l := out[s.Name]
		l.calls++
		l.selfNS += s.End - s.Start - child[s.ID]
		l.allocs += s.Allocs
		out[s.Name] = l
	}
	return out
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
