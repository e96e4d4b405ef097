package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vase/internal/corpus"
	"vase/internal/gen"
	"vase/internal/pipeline"
	"vase/internal/server"
	"vase/internal/vhif"
)

// clients is the closed loop's size: each client sends its next request
// only after the previous reply, over its own connection.
const clients = 2

// requestMix is how many requests of each endpoint every block of 20
// requests a client sends holds (45% lint, 40% parse, 10% synthesize, 5%
// simulate): mostly front-end requests on distinct specs, some synthesis,
// a little behavioural simulation. The seed shuffles each block. A mix
// drawn request by request instead moved CPU time per request by several
// percent between runs, because a few requests (a small spec's search, a
// simulation) cost as much as dozens of others.
var requestMix = []struct {
	endpoint string
	count    int
}{
	{"lint", 9},
	{"parse", 8},
	{"synthesize", 2},
	{"simulate", 1},
}

// recentRepeats is how many of the latest synthesize requests a repeat
// draws from.
const recentRepeats = 4

// The serve workload's synthesize pool is pinned, like the synth set, so
// that what one request costs does not depend on the seed: toy specs and
// small specs whose search completes within nodeBudget. The front-end specs
// are pinned too (frontSeed); the seed draws the request stream.
var servePool = []specRef{
	{1, 0, gen.SizeToy}, {1, 1, gen.SizeToy}, {1, 2, gen.SizeToy},
	{1, 3, gen.SizeToy}, {2, 0, gen.SizeToy}, {2, 1, gen.SizeToy},
	{1, 1, gen.SizeSmall}, {1, 2, gen.SizeSmall}, {3, 5, gen.SizeSmall},
}

// serveSlice is the length of the slices the measured window is cut into.
// The host's speed is sampled once between slices, while no request is in
// flight; a closed loop restarts within microseconds, so the cut costs the
// load nothing that shows.
const serveSlice = 250 * time.Millisecond

// frontPoolSize is how many generated specs the lint and parse requests
// are drawn from, all with generator seed frontSeed; each request renames
// its spec so that no two are alike. Specs drawn from the workload seed
// moved CPU time per request by several percent between seeds.
const (
	frontPoolSize = 48
	frontSeed     = 1
)

// frontSizes cycles the sizes of the front-end specs.
var frontSizes = []gen.Size{gen.SizeToy, gen.SizeSmall, gen.SizeSmall, gen.SizeMedium}

type serveSet struct {
	front []*gen.Spec
	pool  []*gen.Spec
	srv   *http.Server
	done  chan struct{}
	url   string
	http  *http.Client
}

func newServeSet() (*serveSet, error) {
	s := &serveSet{}
	for i := 0; i < frontPoolSize; i++ {
		s.front = append(s.front, gen.Generate(frontSeed, i, frontSizes[i%len(frontSizes)]))
	}
	for _, ref := range servePool {
		s.pool = append(s.pool, gen.Generate(ref.seed, ref.index, ref.size))
	}
	pipe, err := pipeline.New(pipeline.Options{})
	if err != nil {
		return nil, err
	}
	h, err := server.New(server.Config{Pipeline: pipe, MaxConcurrent: clients, WorkerBudget: clients})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	s.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	// Warm-up: each client opens its connection and calls every endpoint
	// once on a Table 1 application, which no measured request sends.
	recv := corpus.ByKey("receiver").Source
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			app := corpus.Applications()[c].Source
			for _, req := range []struct {
				endpoint string
				body     map[string]any
			}{
				{"parse", map[string]any{"source": app}},
				{"lint", map[string]any{"source": app}},
				{"synthesize", map[string]any{"source": app}},
				{"simulate", map[string]any{"source": recv, "inputs": map[string]string{"line": "sine:1.5,1000", "local": "dc:0"},
					"tstop": 3e-3, "tstep": 1e-6, "every": 20}},
			} {
				if st, _, err := s.post(req.endpoint, req.body); err != nil || st != http.StatusOK {
					errs[c] = fmt.Errorf("warm-up %s: status %d: %v", req.endpoint, st, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close stops the server and waits for it to exit.
func (s *serveSet) close() {
	if s == nil || s.srv == nil {
		return
	}
	s.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// post sends one JSON request and returns the status and body.
func (s *serveSet) post(endpoint string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.http.Post(s.url+"/v1/"+endpoint, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// metrics reads the server's /metrics counters.
func (s *serveSet) metrics() (map[string]float64, error) {
	resp, err := s.http.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[key] = v
		}
	}
	return out, sc.Err()
}

// synthDraws hands out synthesize requests: first every pool spec once, in
// an order drawn from the seed, then in turn a repeat of an earlier request,
// byte for byte, which hits the pipeline cache, and a renamed copy of a pool
// spec, which misses and runs the mapper: a repeat share of one half.
type synthDraws struct {
	mu     sync.Mutex
	rng    *rand.Rand
	order  []int
	copies *deck[int]
	sent   []synthReq
	next   int
}

type synthReq struct {
	name, text string
	// base indexes servePool; rename is the entity name a renamed copy
	// carries, "" for the pool spec itself.
	base   int
	rename string
}

func (d *synthDraws) draw(pool []*gen.Spec, unique func() int) synthReq {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.next
	d.next++
	var req synthReq
	switch {
	case n < len(d.order):
		i := d.order[n]
		req = synthReq{pool[i].Name + ".vhd", pool[i].Source, i, ""}
	case (n-len(d.order))%2 == 0:
		// A repeat resends one of the last few specs: the server's default
		// 512-entry LRU turns over within a second under this load, so an
		// older spec would miss again and the repeat share would drift with
		// the request rate.
		recent := d.sent[max(0, len(d.sent)-recentRepeats):]
		return recent[d.rng.Intn(len(recent))]
	default:
		i := d.copies.draw()
		name, text := renamed(pool[i], unique())
		req = synthReq{name + ".vhd", text, i, name}
	}
	d.sent = append(d.sent, req)
	return req
}

// renamed gives a spec a fresh entity name, so that its text, and with it
// every pipeline cache key, is new while the work it takes is the same.
func renamed(sp *gen.Spec, n int) (string, string) {
	name := fmt.Sprintf("%s_u%d", sp.Name, n)
	return name, strings.ReplaceAll(sp.Source, sp.Name, name)
}

// waveSpec renders a generated stimulus in the server's waveform grammar
// (a sine's phase is dropped; the grammar has none).
func waveSpec(w gen.Wave) string {
	switch w.Shape {
	case "sine":
		return fmt.Sprintf("sine:%g,%g", w.Amp, w.Freq)
	case "step":
		return fmt.Sprintf("step:%g,%g,%g", w.V0, w.V1, w.At)
	default:
		return fmt.Sprintf("dc:%g", w.Level)
	}
}

// sample is one completed request.
type sample struct {
	endpoint string
	status   int
	latency  time.Duration
	traced   bool
	err      error
	synth    synthReq
	body     []byte
}

func runServe(cfg config, r *result) error {
	set, setupS, err := timeSetup(r.ref, func() (*serveSet, error) { return newServeSet() }, (*serveSet).close)
	defer set.close()
	if err != nil {
		return err
	}
	before, err := set.metrics()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	draws := &synthDraws{rng: rng, order: rng.Perm(len(set.pool)), copies: newDeck(rng, indexes(len(set.pool)))}
	var (
		mu      sync.Mutex
		counter int
		samples []sample
	)
	unique := func() int {
		mu.Lock()
		defer mu.Unlock()
		counter++
		return counter
	}
	cls := make([]*client, clients)
	sent := make([]int, clients)
	for c := range cls {
		cls[c] = newClient(rand.New(rand.NewSource(cfg.seed*clients+int64(c))), set)
	}
	var measured, cpu time.Duration
	err = measure(cfg, func() error {
		end := deadline(cfg)
		for n := 0; n == 0 || time.Now().Before(end); n++ {
			r.ref.sample()
			stop := time.Now().Add(serveSlice)
			if stop.After(end) {
				stop = end
			}
			start, cpu0 := time.Now(), cpuTime()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					var mine []sample
					for ; time.Now().Before(stop); sent[c]++ {
						// A traced run traces every other request, so its
						// overhead shows against the untraced ones.
						traced := cfg.trace && sent[c]%2 == 1
						mine = append(mine, set.request(cls[c], draws, unique, r.tracer, traced))
					}
					mu.Lock()
					samples = append(samples, mine...)
					mu.Unlock()
				}(c)
			}
			wg.Wait()
			measured += time.Since(start)
			cpu += cpuTime() - cpu0
		}
		return nil
	})
	if err != nil {
		return err
	}
	after, err := set.metrics()
	if err != nil {
		return err
	}
	return serveResults(cfg, r, set, setupS, measured, cpu, samples, before, after)
}

// deck deals a fixed list of items in an order shuffled by rng, and
// shuffles again when it has dealt them all, so that every stretch of
// len(items) draws from a fresh shuffle holds each item exactly once.
type deck[T any] struct {
	items []T
	rng   *rand.Rand
	next  int
}

func newDeck[T any](rng *rand.Rand, items []T) *deck[T] { return &deck[T]{items: items, rng: rng} }

func (d *deck[T]) draw() T {
	if d.next == 0 {
		d.rng.Shuffle(len(d.items), func(i, j int) { d.items[i], d.items[j] = d.items[j], d.items[i] })
	}
	v := d.items[d.next]
	d.next = (d.next + 1) % len(d.items)
	return v
}

func indexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// client is one client's share of the request stream: the endpoints it
// sends, the front-end specs it lints and parses, and the pool specs it
// simulates, each dealt from a deck.
type client struct {
	endpoints *deck[string]
	front     *deck[int]
	sims      *deck[int]
}

func newClient(rng *rand.Rand, set *serveSet) *client {
	var endpoints []string
	for _, m := range requestMix {
		for i := 0; i < m.count; i++ {
			endpoints = append(endpoints, m.endpoint)
		}
	}
	return &client{newDeck(rng, endpoints), newDeck(rng, indexes(len(set.front))), newDeck(rng, indexes(len(set.pool)))}
}

// request sends one request of the mix and times it from the client side.
func (s *serveSet) request(c *client, draws *synthDraws, unique func() int, t *tracer, traced bool) sample {
	endpoint := c.endpoints.draw()
	smp := sample{endpoint: endpoint, traced: traced}
	var body map[string]any
	switch endpoint {
	case "lint", "parse":
		name, text := renamed(s.front[c.front.draw()], unique())
		body = map[string]any{"name": name + ".vhd", "source": text}
	case "synthesize":
		smp.synth = draws.draw(s.pool, unique)
		body = map[string]any{"name": smp.synth.name, "source": smp.synth.text, "max_nodes": nodeBudget}
	case "simulate":
		sp := s.pool[c.sims.draw()]
		inputs := map[string]string{}
		for name, w := range sp.Inputs {
			inputs[name] = waveSpec(w)
		}
		body = map[string]any{"name": sp.Name + ".vhd", "source": sp.Source, "inputs": inputs,
			"tstop": sp.TStop, "tstep": sp.TStep, "every": 20}
	}
	var sp *open
	if traced {
		id := int64(unique())
		sp = t.begin(id, 0, "server."+endpoint, false)
	}
	start := time.Now()
	smp.status, smp.body, smp.err = s.post(endpoint, body)
	smp.latency = time.Since(start)
	sp.end()
	// Keep the bodies the results need: synthesize replies for the checks,
	// and traced parse replies for the IR size.
	if smp.status != http.StatusOK || !(endpoint == "synthesize" || endpoint == "parse" && traced) {
		smp.body = nil
	}
	return smp
}

// reply is what a synthesize request must return.
type reply struct {
	netlist string
	area    float64
}

type synthReply struct {
	Netlist string  `json:"netlist"`
	AreaUm2 float64 `json:"area_um2"`
	Cached  bool    `json:"cached"`
	Search  struct {
		NodesVisited int   `json:"nodes_visited"`
		Pruned       int   `json:"pruned"`
		ElapsedUS    int64 `json:"elapsed_us"`
	} `json:"search"`
}

func (s synthReply) reply() reply { return reply{s.Netlist, s.AreaUm2} }

func serveResults(cfg config, r *result, set *serveSet, setupS float64, measured, cpu time.Duration,
	samples []sample, before, after map[string]float64) error {
	var (
		all, plain, tracedLat []float64
		perEndpoint           = map[string][]float64{}
		completed, degraded   int
		replies               = map[synthReq]reply{}
		nodes, pruned         int
		mapperUS              int64
		misses                int
		blocks                []float64
	)
	for _, smp := range samples {
		r.attempted++
		ms := millis(smp.latency)
		all = append(all, ms)
		perEndpoint[smp.endpoint] = append(perEndpoint[smp.endpoint], ms)
		if smp.traced {
			tracedLat = append(tracedLat, ms)
		} else {
			plain = append(plain, ms)
		}
		switch {
		case smp.err != nil:
			r.failed++
			r.notef("transport error on %s: %v", smp.endpoint, smp.err)
			continue
		case smp.status == http.StatusPartialContent:
			degraded++
			completed++
			continue
		case smp.status != http.StatusOK:
			r.failed++
			continue
		}
		completed++
		if smp.body == nil {
			continue
		}
		if smp.endpoint == "parse" {
			var rep struct {
				VHIF string `json:"vhif"`
			}
			var m *vhif.Module
			err := json.Unmarshal(smp.body, &rep)
			if err == nil {
				m, err = vhif.Parse(rep.VHIF)
			}
			if err != nil {
				r.checkf("parse reply: %v", err)
				continue
			}
			blocks = append(blocks, float64(m.BlockCount()))
			continue
		}
		var rep synthReply
		if err := json.Unmarshal(smp.body, &rep); err != nil {
			r.failed++
			r.checkf("synthesize reply: %v", err)
			continue
		}
		if prev, ok := replies[smp.synth]; ok && prev != rep.reply() {
			r.failed++
			r.checkf("%s: synthesize replies differ", smp.synth.name)
		}
		replies[smp.synth] = rep.reply()
		if !rep.Cached {
			misses++
			nodes += rep.Search.NodesVisited
			pruned += rep.Search.Pruned
			mapperUS += rep.Search.ElapsedUS
		}
	}
	// Every distinct synthesized text must match a direct synthesis. Each
	// pool spec and the first renamed copy of it are synthesized directly;
	// further copies are checked against the pool spec's netlist under the
	// same rename, which the first copy shows to commute with synthesis.
	direct := map[string]reply{}
	synth := func(req synthReq) reply {
		if d, ok := direct[req.text]; ok {
			return d
		}
		out, err := synthOne(nil, 0, &synthInput{name: req.name, text: req.text})
		if err != nil {
			r.checkf("direct synthesis of %s: %v", req.name, err)
			return reply{}
		}
		direct[req.text] = reply{out.netlist.Dump(), out.area}
		return direct[req.text]
	}
	// The area is that of the whole pool, so it does not depend on which
	// pool specs a run happened to request.
	area := 0.0
	for i, sp := range set.pool {
		area += synth(synthReq{sp.Name + ".vhd", sp.Source, i, ""}).area
	}
	checkedRename := map[int]bool{}
	for _, req := range sortedReqs(replies) {
		base := set.pool[req.base]
		want := synth(synthReq{base.Name + ".vhd", base.Source, req.base, ""})
		if req.rename != "" {
			want.netlist = strings.ReplaceAll(want.netlist, base.Name, req.rename)
			if !checkedRename[req.base] {
				checkedRename[req.base] = true
				if d := synth(req); d != want {
					r.checkf("%s: renaming does not commute with synthesis", req.name)
				}
			}
		}
		if replies[req] != want {
			r.failed++
			r.checkf("%s: synthesize reply differs from a direct synthesis of the same spec", req.name)
		}
	}

	r.cpuScaled("setup_s", setupS, "s", "cpu.setup_s")
	// Clients and server share the process, so this is the CPU time one
	// request costs on both ends of the loopback connection.
	r.cpuScaled("cpu_ms_per_op", millis(cpu)/float64(len(samples)), "ms", "cpu.ms_per_op")
	r.e2e("area_um2", area, "um2")
	r.layer("wall.ops_per_s", float64(completed)/measured.Seconds(), "1/s")
	r.layer("wall.p50_ms", quantile(all, 0.50), "ms")
	r.layer("wall.p99_ms", quantile(all, 0.99), "ms")
	r.notef("requests=%d completed=%d degraded(206)=%d distinct synthesized specs=%d clients=%d", len(samples), completed, degraded, len(replies), clients)

	r.layer("serve.rps", float64(completed)/measured.Seconds(), "1/s")
	r.layer("serve.p50_ms", quantile(all, 0.50), "ms")
	r.layer("serve.p99_ms", quantile(all, 0.99), "ms")
	r.layer("serve.requests", float64(len(samples)), "count")
	r.layer("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	for _, m := range requestMix {
		r.layer("server."+m.endpoint+".p50_ms", quantile(perEndpoint[m.endpoint], 0.5), "ms")
	}
	delta := func(key string) float64 { return after[key] - before[key] }
	r.layer("server.shed", delta("vased_shed_total")+delta("vased_queue_timeout_total"), "count")
	r.layer("server.degraded_ratio", float64(degraded)/float64(len(samples)), "ratio")
	var cached, missed, shared float64
	for _, st := range pipelineStages {
		k := func(kind string) string { return fmt.Sprintf("vase_stage_requests_total{stage=%q,kind=%q}", st, kind) }
		m := delta(k("miss"))
		cached += delta(k("mem_hit")) + delta(k("disk_hit")) + delta(k("shared"))
		shared += delta(k("shared"))
		missed += m
		r.layer("pipeline."+st+".misses", m, "count")
		r.layer("pipeline."+st+".compute_ms", 1000*delta(fmt.Sprintf("vase_stage_compute_seconds_sum{stage=%q}", st)), "ms")
	}
	r.layer("pipeline.hit_ratio", cached/(cached+missed), "ratio")
	r.layer("pipeline.shared", shared, "count")
	// The front-end layers as the server's pipeline timed them: compute
	// time per miss of each stage.
	perMiss := func(st string) float64 {
		m := delta(fmt.Sprintf("vase_stage_requests_total{stage=%q,kind=\"miss\"}", st))
		if m == 0 {
			return 0
		}
		return 1000 * delta(fmt.Sprintf("vase_stage_compute_seconds_sum{stage=%q}", st)) / m
	}
	if cfg.trace {
		r.layer("parser.ms", perMiss("parse"), "ms")
		r.layer("sema.ms", perMiss("sema"), "ms")
		r.layer("compile.ms", perMiss("compile"), "ms")
		r.layer("lint.ms", perMiss("lint"), "ms")
		r.layer("absint.ms", perMiss("ranges"), "ms")
		if misses > 0 {
			r.layer("mapper.ms", float64(mapperUS)/1000/float64(misses), "ms")
			r.layer("mapper.nodes", float64(nodes), "count")
			r.layer("mapper.nodes_per_s", float64(nodes)/(float64(mapperUS)/1e6), "1/s")
			r.layer("mapper.pruned_ratio", float64(pruned)/float64(nodes), "ratio")
		}
		r.layer("vhif.blocks", mean(blocks), "count")
		r.layer("trace.overhead_ratio", mean(tracedLat)/mean(plain)-1, "ratio")
	}
	return nil
}

// sortedReqs orders the distinct synthesize requests by name, so checks run
// in the same order on every run.
func sortedReqs(m map[synthReq]reply) []synthReq {
	out := make([]synthReq, 0, len(m))
	for req := range m {
		out = append(out, req)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
