// Package mapper implements the VASE architecture generator: a
// branch-and-bound search that maps the signal-flow graphs of a VHIF module
// onto a minimum-area netlist of library components while satisfying
// performance constraints (the paper's Section 5, Figure 5).
//
// The three problem-specific elements of the algorithm are implemented
// exactly as described:
//
//   - Branching rule: for the current block, all library patterns whose
//     covered sub-graph ends at that block (including functional and
//     interfacing transformations) generate alternatives; for each, the
//     block structure may share an existing identical component
//     (cross-path sharing) or allocate a dedicated one.
//   - Bounding rule: a partial solution dies when even at minimum op amp
//     area ((opamps so far + opamps of the candidate) * MinArea) it cannot
//     beat the best complete mapping found so far.
//   - Sequencing rule: alternatives covering more blocks with fewer op amps
//     are tried first, and sharing before dedicated allocation, so a good
//     solution is found early and the bound becomes effective.
//
// Complete mappings are ranked by the analog performance estimator.
package mapper

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"vase/internal/estimate"
	"vase/internal/library"
	"vase/internal/netlist"
	"vase/internal/patterns"
	"vase/internal/vhif"
)

// Objective selects the quantity the branch-and-bound minimizes.
type Objective int

// Objectives. The paper minimizes ASIC area; power is the other global
// attribute its estimation tools report.
const (
	MinimizeArea Objective = iota
	MinimizePower
)

// Options configures a synthesis run.
type Options struct {
	// Process and System size the op amps during estimation.
	Process estimate.Process
	System  estimate.SystemSpec
	// Objective is the minimized quantity (area by default).
	Objective Objective
	// Patterns controls the pattern generator.
	Patterns patterns.Options
	// NoSequencing disables the sequencing rule (candidates tried in
	// reverse preference order) — ablation.
	NoSequencing bool
	// NoBounding disables the bounding rule — ablation.
	NoBounding bool
	// NoSharing disables cross-path component sharing — ablation.
	NoSharing bool
	// FirstFit stops at the first complete mapping (the time-effective
	// exploration heuristic the paper's future work calls for): with the
	// sequencing rule ordering candidates, the first completion is usually
	// at or near the optimum and the search cost collapses.
	FirstFit bool
	// StrongBound adds a per-uncovered-block op amp lower bound to the
	// bounding rule ("more effective bounding rules", paper Section 7).
	// Admissible when sharing is disabled; with sharing it may prune
	// mappings that would have shared components for free, so it is a
	// heuristic there.
	StrongBound bool
	// Trace records the decision tree (Figure 6). Tracing is strictly
	// opt-in: with Trace false the search allocates no tree nodes, which
	// keeps the hot path allocation-free for parallel workers.
	Trace bool
	// MaxNodes caps the search (0 = 1<<22 nodes). With Workers > 1 the cap
	// is a shared budget across all workers; when it binds, which nodes
	// were explored (and therefore the returned mapping) depends on
	// scheduling. A binding cap truncates the search: the best incumbent
	// found so far is returned with Result.Nonoptimal set.
	MaxNodes int
	// Deadline bounds the wall-clock time of the search (0 = none). It is
	// applied on top of any context passed to SynthesizeContext; on expiry
	// the search stops and returns the incumbent with Result.Nonoptimal
	// set (the anytime contract, DESIGN.md §9).
	Deadline time.Duration
	// Workers is the number of concurrent branch-and-bound workers.
	// 0 selects runtime.GOMAXPROCS(0); 1 runs the exact sequential search
	// (preserved bit-for-bit for ablations and decision-tree studies).
	// For any Workers value the returned mapping is identical to the
	// sequential optimum — workers share the incumbent bound through an
	// atomic compare-and-swap and ties are broken on canonical (depth-first)
	// mapping order — except for the inadmissible StrongBound+sharing
	// combination, where parallel runs are still deterministic but may
	// settle on a different equal-quality mapping than the sequential
	// heuristic.
	Workers int
	// Performance constraints: complete mappings violating them are
	// discarded ("so that all performance constraints are satisfied, and
	// the total ASIC area is minimized"). Zero means unconstrained.
	MaxAreaUm2 float64
	MaxPowerMW float64
	MaxOpAmps  int
}

// DefaultOptions returns the standard synthesis configuration: the SCN
// 2.0 µm process with the system specification derived from the design's
// port annotations (audio-range defaults when unannotated).
func DefaultOptions() Options {
	return Options{Process: estimate.SCN20}
}

// EffectiveWorkers resolves an Options.Workers value to the worker count a
// search will actually use: n itself when positive, runtime.GOMAXPROCS(0)
// otherwise. Exported so a scheduler arbitrating a shared worker budget
// (the vased server) agrees with the search about what a request consumes.
func EffectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Stats reports search effort and outcome. In parallel runs the counters
// aggregate over the splitter and every worker task.
type Stats struct {
	NodesVisited     int
	CompleteMappings int
	Pruned           int
	// Infeasible counts complete mappings discarded for violating the
	// performance constraints.
	Infeasible  int
	BestOpAmps  int
	BestAreaUm2 float64
	// Workers and Tasks describe the parallel decomposition (1/1 for the
	// sequential search).
	Workers int
	Tasks   int
	// Elapsed is the wall-clock time of the whole synthesis call, so
	// callers of a deadlined run can reason about how much search the
	// incumbent received.
	Elapsed time.Duration
}

// TreeNode is one node of the traced decision tree.
type TreeNode struct {
	// Block is the current block the node branched on ("" at the root).
	Block string
	// Decision describes the branch taken to reach this node.
	Decision string
	// OpAmps is the op amp count of the partial mapping at this node.
	OpAmps int
	// Complete marks leaves that are full mappings; AreaUm2 their area.
	Complete bool
	AreaUm2  float64
	Pruned   bool
	Children []*TreeNode
}

// Result is a completed synthesis.
type Result struct {
	Netlist *netlist.Netlist
	Report  *netlist.Report
	Stats   Stats
	Tree    *TreeNode
	// Nonoptimal marks a truncated search: the node budget or the
	// deadline/cancellation stopped exploration before the whole decision
	// tree was covered, so Netlist is the best incumbent found rather than
	// the proven optimum.
	Nonoptimal bool
}

// Synthesize maps the module onto a minimum-area component netlist.
// With Options.Workers != 1 the decision tree is split at the top levels
// into independent subtree tasks explored by a bounded worker pool; see
// parallel.go for the decomposition and the determinism argument.
func Synthesize(m *vhif.Module, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), m, opts)
}

// SynthesizeContext is Synthesize under a context: branch-and-bound is a
// natural anytime algorithm, so on cancellation or deadline expiry the
// search stops and returns the best incumbent found so far tagged
// Result.Nonoptimal — never a hang, and an error only when not even a
// greedy first-fit completion exists. A context that can never be
// cancelled leaves the search byte-identical to Synthesize.
func SynthesizeContext(ctx context.Context, m *vhif.Module, opts Options) (*Result, error) {
	start := time.Now() //vase:walltime (stats telemetry)
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	if opts.Process.Name == "" {
		opts.Process = estimate.SCN20
	}
	if opts.System.Bandwidth == 0 {
		opts.System = SystemSpecFor(m)
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 1 << 22
	}
	opts.Workers = EffectiveWorkers(opts.Workers)
	s := newSearch(m, opts)
	if ctx.Done() != nil {
		// The workers poll an atomic flag instead of the context channel:
		// one flag load per node is cheap, and a context that can never
		// fire (Background) costs nothing at all.
		var flag atomic.Bool
		stop := context.AfterFunc(ctx, func() { flag.Store(true) })
		defer stop()
		if ctx.Err() != nil {
			// AfterFunc fires asynchronously; an already-expired context
			// must truncate the search deterministically, not race it.
			flag.Store(true)
		}
		s.cancel = &flag
	}
	if opts.Trace {
		s.root = &TreeNode{Decision: "root"}
		s.cursor = s.root
	}
	if opts.Workers > 1 {
		s.runParallel()
	} else {
		s.stats.Workers, s.stats.Tasks = 1, 1
		s.run(0)
	}
	if s.truncated && s.best == nil {
		// Anytime fallback: the search was cut off before its first
		// complete mapping. A bounded greedy first-fit descent (the
		// sequencing rule makes its first completion a good one) still
		// produces a valid incumbent to return.
		gopts := opts
		gopts.FirstFit = true
		gopts.Trace = false
		gopts.Workers = 1
		// The truncated run may have exhausted the node budget before its
		// first completion; the first-fit descent needs its own headroom
		// (it stops at the first complete mapping, so it stays cheap).
		gopts.MaxNodes = 1 << 22
		g := newSearch(m, gopts)
		g.run(0)
		s.best, s.bestArea = g.best, g.bestArea
		s.stats.NodesVisited += g.stats.NodesVisited
		s.stats.CompleteMappings += g.stats.CompleteMappings
		s.stats.Infeasible += g.stats.Infeasible
		if s.err == nil {
			s.err = g.err
		}
	}
	if s.best == nil {
		if s.err != nil {
			return nil, s.err
		}
		if s.truncated && ctx.Err() != nil {
			return nil, fmt.Errorf("mapper: search for module %q cancelled before any feasible mapping: %w", m.Name, ctx.Err())
		}
		return nil, fmt.Errorf("mapper: no feasible mapping for module %q", m.Name)
	}
	nl, err := s.buildNetlist(s.best)
	if err != nil {
		return nil, err
	}
	rep, err := nl.Estimate(opts.Process, opts.System)
	if err != nil {
		return nil, err
	}
	s.stats.BestOpAmps = nl.OpAmpCount()
	s.stats.BestAreaUm2 = rep.AreaUm2
	s.stats.Elapsed = time.Since(start) //vase:walltime (stats telemetry)
	return &Result{Netlist: nl, Report: rep, Stats: s.stats, Tree: s.root, Nonoptimal: s.truncated}, nil
}

// newSearch builds a search over the module: the block visitation order,
// the memoized per-block candidates (the candidate lists depend only on the
// block, never on the covering state, so they are computed once and shared
// read-only by every worker), and the bounding floors.
func newSearch(m *vhif.Module, opts Options) *search {
	s := &search{
		m:             m,
		opts:          opts,
		floorGeneral:  estimate.MinArea(opts.Process),
		floorDecision: estimate.MinOTAArea(opts.Process),
		bestArea:      inf,
	}
	if opts.Objective == MinimizePower {
		// Class floors in watts: the minimum-bias designs of each topology.
		s.floorGeneral = estimate.MinOpAmp(opts.Process).Power
		s.floorDecision = 2e-6 * opts.Process.Vdd // one minimum tail current
	}
	s.order = blockOrder(m)
	graphOf := map[*vhif.Block]*vhif.Graph{}
	for _, g := range m.Graphs {
		for _, b := range g.Blocks {
			if graphOf[b] == nil {
				graphOf[b] = g
			}
		}
	}
	// Ordinals: the visitation order first, then any other block a match
	// covers, so coverage is a slice indexed by ordinal.
	ordOf := make(map[*vhif.Block]int32, len(s.order))
	for i, b := range s.order {
		ordOf[b] = int32(i)
	}
	sigID := map[string]int32{}
	s.matchTab = make([][]cand, len(s.order))
	for bi, b := range s.order {
		ms := patterns.MatchesFor(graphOf[b], b, opts.Patterns)
		if opts.NoSequencing {
			// Ablation: reverse the preference order.
			for i, j := 0, len(ms)-1; i < j; i, j = i+1, j-1 {
				ms[i], ms[j] = ms[j], ms[i]
			}
		}
		cs := make([]cand, len(ms))
		for k, match := range ms {
			// Each signature's component is estimated once, when it is
			// interned: the table is then read-only and shared by every
			// worker, and a node visit never estimates. Errors surface in
			// depth-first order, through matchCost.
			sig := sigOf(match)
			id, ok := sigID[sig]
			if !ok {
				id = int32(len(s.costOf))
				sigID[sig] = id
				s.costOf = append(s.costOf, s.estimate(match))
			}
			blocks := make([]int32, len(match.Blocks))
			for j, cov := range match.Blocks {
				o, ok := ordOf[cov]
				if !ok {
					o = int32(len(ordOf))
					ordOf[cov] = o
				}
				blocks[j] = o
			}
			cs[k] = cand{match: match, sig: id, blocks: blocks, lb: s.matchLB(match)}
		}
		s.matchTab[bi] = cs
	}
	s.initState(len(ordOf))
	if opts.StrongBound {
		s.computeBlockBounds(ordOf)
	}
	return s
}

// initState allocates the mutable exploration state for n block ordinals.
// The capacities are final — a mapping allocates at most one component
// and places at most one match per covered block — so no node visit grows
// them.
func (s *search) initState(n int) {
	s.covered = make([]bool, n)
	s.allocs = make([]alloc, 0, len(s.order))
	s.placed = make([]placement, 0, n)
	s.firstOf = make([]int32, len(s.costOf))
	for i := range s.firstOf {
		s.firstOf[i] = -1
	}
}

const inf = 1e300

// SystemSpecFor derives the design-wide signal specification from the
// module's port annotations: the highest annotated frequency bound sets the
// bandwidth, the widest annotated range or peak drive the signal swing.
// Unannotated designs fall back to the audio-range default. It is exported
// so the pipeline's estimate stage applies the identical defaulting when it
// re-estimates a netlist materialized from a cached artifact.
func SystemSpecFor(m *vhif.Module) estimate.SystemSpec {
	sys := estimate.DefaultSystemSpec()
	for _, p := range m.Ports {
		if p.FreqHi > sys.Bandwidth {
			sys.Bandwidth = p.FreqHi
		}
		for _, v := range []float64{p.PeakDrive, p.RangeHi, -p.RangeLo, p.LimitAt} {
			if v > sys.PeakV {
				sys.PeakV = v
			}
		}
	}
	return sys
}

// cellCost is the estimate of a dedicated component: layout area and
// static power, or the error of an infeasible specification.
type cellCost struct {
	area, power float64
	err         error
}

// cand is one branching alternative of a block: a memoized pattern match
// with its sharing signature interned to a dense ID (equal IDs mean equal
// sigOf strings), the ordinals of the blocks it covers (in match order)
// and its matchLB.
type cand struct {
	match  *patterns.Match
	sig    int32
	blocks []int32
	lb     float64
}

// alloc is one allocated component shared by one or more placements.
type alloc struct {
	sig   int32
	area  float64
	power float64
	uses  int
	// cost is the objective value of the component (area or power).
	cost float64
}

// placement is one placed match and the index of the component in
// search.allocs that realizes it.
type placement struct {
	match *patterns.Match
	alloc int32
}

// mapping is a complete mapping: for each component, every match it
// realizes, the defining one first; later ones alias their outputs onto it.
type mapping [][]*patterns.Match

// search carries the branch-and-bound state of one sequential exploration:
// the whole tree for Workers == 1, or one subtree task inside a worker.
type search struct {
	m    uModule
	opts Options
	// order is the block visitation order; a block's index in it is its
	// ordinal. Blocks outside the order that a match covers get the
	// ordinals after it.
	order         []*vhif.Block
	floorGeneral  float64
	floorDecision float64
	// matchTab memoizes the candidates of each block ordinal in sequencing
	// order. Read-only after newSearch; shared across workers.
	matchTab [][]cand

	// Parallel coordination (nil/zero for the sequential search).
	shared *sharedState
	task   int // DFS index of this worker's subtree task

	// covered marks the covered block ordinals. allocs is the stack of
	// allocated components and placed the stack of placements; both are
	// preallocated to their maximum depth (initState), so the records are
	// reused across branches and a node visit allocates nothing.
	covered []bool
	allocs  []alloc
	placed  []placement
	// firstOf is, per signature ID, the index of the lowest component on
	// the allocs stack with that signature, or -1: the one findShared
	// picks.
	firstOf []int32
	opamps  int
	// floorGeneral/floorDecision are the per-op-amp objective floors (area
	// in µm² or power in W) for general-purpose and decision-class cells;
	// the bounding rule multiplies op amp counts by them.
	// lbArea is the class-aware minimum area of the op amps allocated so
	// far: decision cells (comparators/Schmitt triggers) may be realized
	// as minimum OTAs, everything else needs at least a minimum two-stage
	// amplifier. The paper's bounding rule is the single-topology special
	// case of this bound.
	lbArea float64

	bestArea float64
	// best is the incumbent, rewritten in place on each improvement;
	// bestFlat backs its placement lists.
	best     mapping
	bestFlat []*patterns.Match
	stats    Stats
	err      error
	done     bool // FirstFit: stop after the first complete mapping
	// cancel is the cooperative stop flag armed by SynthesizeContext (nil
	// when the context can never fire); every node visit polls it.
	cancel *atomic.Bool
	// truncated records that the search stopped early — node budget
	// exhausted or cancel observed — so the returned mapping is the best
	// incumbent, not the proven optimum.
	truncated bool

	// costOf is the estimated cost per signature ID. Read-only after
	// newSearch; shared across workers.
	costOf []cellCost
	// blockLB is the per-ordinal fractional op amp lower bound used by the
	// strong bounding rule (nil without it); remainingLB its sum over
	// uncovered blocks.
	blockLB     []float64
	remainingLB float64

	root   *TreeNode
	cursor *TreeNode
}

// uModule is the minimal module view the search needs.
type uModule = *vhif.Module

// blockOrder computes the current-block visitation order: outputs first,
// then depth-first through input and control nets, matching the paper's
// output-to-input traversal of the signal-flow graph.
func blockOrder(m *vhif.Module) []*vhif.Block {
	var order []*vhif.Block
	seen := map[*vhif.Block]bool{}
	var visit func(b *vhif.Block)
	visit = func(b *vhif.Block) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		if isMappable(b) {
			order = append(order, b)
		}
		for _, in := range b.Inputs {
			if in != nil {
				visit(in.Driver)
			}
		}
		if b.Ctrl != nil {
			visit(b.Ctrl.Driver)
		}
	}
	for _, g := range m.Graphs {
		for _, b := range g.Blocks {
			if b.Kind == vhif.BOutput {
				visit(b)
			}
		}
	}
	// Control links and any remaining blocks (e.g. detectors driving only
	// exported signals).
	for _, c := range m.Controls {
		if c.Net != nil {
			visit(c.Net.Driver)
		}
	}
	for _, g := range m.Graphs {
		for _, b := range g.Blocks {
			visit(b)
		}
	}
	return order
}

func isMappable(b *vhif.Block) bool {
	switch b.Kind {
	case vhif.BInput, vhif.BOutput, vhif.BConst:
		return false
	}
	return true
}

// nextUncovered returns the ordinal of the first block in order not yet
// covered, or -1 when every block is. Every block before from must be
// covered: a child of run passes its parent's current block, before which
// placing a match cannot uncover anything.
func (s *search) nextUncovered(from int) int {
	for i := from; i < len(s.order); i++ {
		if !s.covered[i] {
			return i
		}
	}
	return -1
}

// minCostOf returns the class-aware per-op-amp objective floor for a cell.
func (s *search) minCostOf(cell *library.Cell) float64 {
	if estimate.IsDecisionCell(cell.Kind) {
		return s.floorDecision
	}
	return s.floorGeneral
}

// matchLB is the minimum-area contribution of allocating a dedicated
// component for the match.
func (s *search) matchLB(m *patterns.Match) float64 {
	return float64(m.OpAmps) * s.minCostOf(m.Cell)
}

// computeBlockBounds fills blockLB: for each block, the cheapest fractional
// minimum area over all matches covering it. The sum over any block set is
// a valid lower bound on the area of any covering (ignoring sharing). The
// fold runs over the memoized candidates: a minimum does not depend on the
// candidate order. Blocks outside the visitation order keep 0 and never
// count.
func (s *search) computeBlockBounds(ordOf map[*vhif.Block]int32) {
	s.blockLB = make([]float64, len(s.covered))
	for i := range s.order {
		s.blockLB[i] = inf
	}
	for _, cs := range s.matchTab {
		for _, c := range cs {
			frac := c.lb / float64(len(c.blocks))
			for _, o := range c.blocks {
				if frac < s.blockLB[o] {
					s.blockLB[o] = frac
				}
			}
		}
	}
	// Sum in graph order: float addition rounds, so the order is part of
	// the bound (and with it of a borderline prune).
	s.remainingLB = 0
	for _, g := range s.m.Graphs {
		for _, b := range g.Blocks {
			if !isMappable(b) {
				continue
			}
			if lb := s.blockLB[ordOf[b]]; lb < inf {
				s.remainingLB += lb
			}
		}
	}
}

// bound returns the minimum-area lower bound of completing the current
// partial mapping after placing the candidate: the class-aware minimum areas
// of the op amps allocated so far, the candidate's, and (under the strong
// rule) the fractional minimum of the still-uncovered blocks.
func (s *search) bound(c *cand) float64 {
	lb := s.lbArea + c.lb
	if s.opts.StrongBound && s.blockLB != nil {
		rest := s.remainingLB
		for _, o := range c.blocks {
			if v := s.blockLB[o]; v < inf && !s.covered[o] {
				rest -= v
			}
		}
		if rest > 0 {
			lb += rest
		}
	}
	return lb
}

// visit accounts one node visit and reports whether the search may proceed:
// it enforces cancellation, the node budget (shared across workers in
// parallel runs) and the first-fit early abort.
func (s *search) visit() bool {
	if s.cancel != nil && s.cancel.Load() {
		// Deadline expired or the caller cancelled: stop the whole search
		// and let the incumbent stand (anytime contract).
		s.done = true
		s.truncated = true
		return false
	}
	if s.shared == nil {
		s.stats.NodesVisited++
		if s.stats.NodesVisited >= s.opts.MaxNodes {
			// Stop the whole search, not just this branch.
			s.done = true
			s.truncated = true
			return false
		}
		return true
	}
	// A task with a DFS index above an already-completed first-fit task can
	// no longer influence the result: its completion would lose the
	// canonical-order tie-break.
	if s.opts.FirstFit && s.shared.ffMin.Load() < int64(s.task) {
		s.done = true
		return false
	}
	if s.shared.nodes.Add(1) > int64(s.opts.MaxNodes) {
		s.done = true
		s.truncated = true
		return false
	}
	s.stats.NodesVisited++
	return true
}

// shouldPrune applies the bounding rule to a partial-solution lower bound.
// The sequential search compares against its own incumbent. Workers also
// consult the shared incumbent, with a tie rule that preserves the
// sequential result exactly: a subtree whose bound *equals* the incumbent
// cost may only be pruned when the incumbent came from a task at or before
// this one in depth-first order — an equal-cost mapping found in a later
// subtree must not suppress the canonical (first-in-DFS-order) optimum.
func (s *search) shouldPrune(lb float64) bool {
	if s.shared != nil && s.shared.bound != nil && s.shared.bound.shouldPrune(lb, s.task) {
		return true
	}
	return lb >= s.bestArea
}

// run explores the subtree below the current partial mapping, in which
// every block ordinal before from is covered.
func (s *search) run(from int) {
	if s.done {
		return
	}
	if !s.visit() {
		return
	}
	cur := s.nextUncovered(from)
	if cur < 0 {
		s.complete()
		return
	}
	// NOTE: the branch enumeration below (candidate order, conflict and
	// feasibility filters, share-before-alloc) is mirrored by the parallel
	// splitter's expand() in parallel.go; keep the two in sync.
	cands := s.matchTab[cur]
	for i := range cands {
		c := &cands[i]
		if s.conflicts(c) {
			continue
		}
		cost, ok := s.matchCost(c)
		if !ok {
			continue
		}
		// Sharing branch: reuse an identical component in the netlist.
		if !s.opts.NoSharing {
			if existing := s.findShared(c); existing >= 0 {
				s.place(c, existing, 0)
				s.descend(c, true, cur)
				s.unplace(c, existing, 0)
			}
		}
		// Dedicated allocation with the bounding rule.
		if !s.opts.NoBounding && s.shouldPrune(s.bound(c)) {
			s.stats.Pruned++
			if s.cursor != nil {
				s.cursor.Children = append(s.cursor.Children, &TreeNode{
					Block:    s.order[cur].Name,
					Decision: "alloc " + c.match.Name,
					OpAmps:   s.opamps + c.match.OpAmps,
					Pruned:   true,
				})
			}
			continue
		}
		a := s.push(c, cost)
		s.place(c, a, c.match.OpAmps)
		s.descend(c, false, cur)
		s.unplace(c, a, c.match.OpAmps)
		s.pop()
	}
}

// descend recurses into the branch just placed, recording it in the traced
// decision tree when tracing is on.
func (s *search) descend(c *cand, share bool, from int) {
	if s.cursor == nil {
		s.run(from)
		return
	}
	decision := "alloc " + c.match.Name
	if share {
		decision = "share " + c.match.Name
	}
	node := &TreeNode{Block: c.match.Root.Name, Decision: decision, OpAmps: s.opamps}
	s.cursor.Children = append(s.cursor.Children, node)
	saved := s.cursor
	s.cursor = node
	s.run(from)
	s.cursor = saved
}

func (s *search) conflicts(c *cand) bool {
	for _, o := range c.blocks {
		if s.covered[o] {
			return true
		}
	}
	return false
}

// push allocates a dedicated component for the candidate on top of the
// allocs stack and returns its index.
func (s *search) push(c *cand, cost cellCost) int32 {
	a := alloc{sig: c.sig, area: cost.area, power: cost.power, cost: cost.area}
	if s.opts.Objective == MinimizePower {
		a.cost = cost.power
	}
	i := int32(len(s.allocs))
	s.allocs = append(s.allocs, a)
	if s.firstOf[c.sig] < 0 {
		s.firstOf[c.sig] = i
	}
	return i
}

// pop removes the component on top of the allocs stack.
func (s *search) pop() {
	i := int32(len(s.allocs) - 1)
	if sig := s.allocs[i].sig; s.firstOf[sig] == i {
		s.firstOf[sig] = -1
	}
	s.allocs = s.allocs[:i]
}

// place realizes the candidate with component a (an index into allocs),
// adding opamps to the partial mapping (0 for a shared component).
func (s *search) place(c *cand, a int32, opamps int) {
	for _, o := range c.blocks {
		s.covered[o] = true
		if s.blockLB != nil {
			if v := s.blockLB[o]; v < inf {
				s.remainingLB -= v
			}
		}
	}
	s.allocs[a].uses++
	s.placed = append(s.placed, placement{match: c.match, alloc: a})
	s.opamps += opamps
	if opamps > 0 {
		s.lbArea += c.lb
	}
}

func (s *search) unplace(c *cand, a int32, opamps int) {
	for _, o := range c.blocks {
		s.covered[o] = false
		if s.blockLB != nil {
			if v := s.blockLB[o]; v < inf {
				s.remainingLB += v
			}
		}
	}
	s.allocs[a].uses--
	s.placed = s.placed[:len(s.placed)-1]
	s.opamps -= opamps
	if opamps > 0 {
		s.lbArea -= c.lb
	}
}

// findShared locates an existing allocation with the same pattern,
// parameters and input nets ("blocks in distinct signal paths can share the
// same component, if they have identical inputs, and perform similar
// operations"): the lowest component with the candidate's signature ID.
// Every component on the stack has a placement, so that is the first one
// a scan of the stack would find. It returns the index, or -1.
func (s *search) findShared(c *cand) int32 {
	return s.firstOf[c.sig]
}

// sigOf builds the sharing signature: pattern, parameters, inputs, control.
// newSearch interns it once per match.
func sigOf(m *patterns.Match) string {
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteByte('|')
	b.WriteString(m.Cell.Kind.String())
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%g", k, m.Params[k])
	}
	for _, in := range m.Inputs {
		fmt.Fprintf(&b, "|i%d", in.ID)
	}
	if m.Ctrl != nil {
		fmt.Fprintf(&b, "|c%d", m.Ctrl.ID)
	}
	return b.String()
}

// matchCost returns the cost of a dedicated component for the candidate;
// infeasible specs reject it. The first rejection the search meets, in
// depth-first order, becomes its error.
func (s *search) matchCost(c *cand) (cellCost, bool) {
	cost := s.costOf[c.sig]
	if cost.err != nil {
		if s.err == nil {
			s.err = cost.err
		}
		return cellCost{}, false
	}
	return cost, true
}

// estimate sizes a dedicated component for the match.
func (s *search) estimate(match *patterns.Match) cellCost {
	inst := estimate.CellInstance{
		Cell:    match.Cell,
		Gain:    maxGain(match),
		Inputs:  len(match.Inputs),
		LoadRes: match.Params["load"],
		PeakOut: match.Params["peak"],
	}
	est, err := estimate.EstimateCell(s.opts.Process, s.opts.System, inst)
	if err != nil {
		return cellCost{err: err}
	}
	cost := cellCost{area: est.AreaUm2, power: est.Power}
	if n := match.Params["stages"]; n > 1 {
		cost.area *= n
		cost.power *= n
	}
	return cost
}

func maxGain(m *patterns.Match) float64 {
	g := 1.0
	for k, v := range m.Params { //vase:unordered (exact max fold, commutative)
		if strings.HasPrefix(k, "gain") {
			if v < 0 {
				v = -v
			}
			if v > g {
				g = v
			}
		}
	}
	return g
}

// complete records a full mapping, keeping it when it beats the best.
func (s *search) complete() {
	s.stats.CompleteMappings++
	area, power, cost := 0.0, 0.0, 0.0
	for i := range s.allocs {
		a := &s.allocs[i]
		area += a.area
		power += a.power
		cost += a.cost
	}
	// Performance constraints: a violating mapping is not a solution.
	if (s.opts.MaxAreaUm2 > 0 && area > s.opts.MaxAreaUm2) ||
		(s.opts.MaxPowerMW > 0 && power*1e3 > s.opts.MaxPowerMW) ||
		(s.opts.MaxOpAmps > 0 && s.opamps > s.opts.MaxOpAmps) {
		s.stats.Infeasible++
		if s.cursor != nil {
			s.cursor.Children = append(s.cursor.Children, &TreeNode{
				Decision: "complete (violates constraints)",
				OpAmps:   s.opamps,
				Complete: true,
				AreaUm2:  area,
			})
		}
		return
	}
	if s.opts.FirstFit {
		s.done = true
		if s.shared != nil {
			s.shared.offerFirstFit(s.task)
		}
	}
	if s.cursor != nil {
		s.cursor.Children = append(s.cursor.Children, &TreeNode{
			Decision: "complete",
			OpAmps:   s.opamps,
			Complete: true,
			AreaUm2:  area,
		})
	}
	if s.shared != nil && s.shared.bound != nil {
		s.shared.bound.offer(cost, s.task)
	}
	if cost < s.bestArea {
		s.bestArea = cost
		s.snapshot()
	}
}

// snapshot copies the current mapping into best. The buffers are sized
// once, for the largest possible mapping, and then rewritten in place.
func (s *search) snapshot() {
	if s.best == nil {
		s.best = make(mapping, 0, cap(s.allocs))
		s.bestFlat = make([]*patterns.Match, cap(s.placed))
	}
	s.best = s.best[:len(s.allocs)]
	off := 0
	for i := range s.allocs {
		n := s.allocs[i].uses
		s.best[i] = s.bestFlat[off : off : off+n]
		off += n
	}
	for _, p := range s.placed {
		s.best[p.alloc] = append(s.best[p.alloc], p.match)
	}
}

// buildNetlist materializes a complete mapping as a component netlist.
func (s *search) buildNetlist(best mapping) (*netlist.Netlist, error) {
	nl := netlist.New(s.m.Name)

	// Shared placements beyond the first compute the same value as the
	// defining placement: canonicalize their output nets onto it.
	canon := map[*vhif.Net]*vhif.Net{}
	for _, placements := range best {
		for _, m := range placements[1:] {
			canon[m.Root.Out] = placements[0].Root.Out
		}
	}
	resolve := func(v *vhif.Net) *vhif.Net {
		for {
			c, ok := canon[v]
			if !ok {
				return v
			}
			v = c
		}
	}

	nets := map[*vhif.Net]*netlist.Net{}
	netFor := func(v *vhif.Net) *netlist.Net {
		if v == nil {
			return nil
		}
		v = resolve(v)
		if n, ok := nets[v]; ok {
			return n
		}
		n := nl.NewNet(v.Name)
		// Constant blocks are not mapped to components; their nets become
		// reference-source nodes.
		if v.Driver != nil && v.Driver.Kind == vhif.BConst {
			value := v.Driver.Param
			n.Const = &value
		}
		nets[v] = n
		return n
	}

	// Input ports.
	for _, g := range s.m.Graphs {
		for _, b := range g.Blocks {
			if b.Kind == vhif.BInput {
				nl.AddPort(b.Name, netlist.In, netFor(b.Out))
			}
		}
	}

	for _, placements := range best {
		m := placements[0]
		var ins []*netlist.Net
		for _, in := range m.Inputs {
			ins = append(ins, netFor(in))
		}
		comp := nl.AddComponent(m.Cell, m.Root.Name, ins, netFor(m.Root.Out))
		comp.Params = map[string]float64{}
		for k, v := range m.Params { //vase:unordered (map-to-map copy)
			comp.Params[k] = v
		}
		if m.Ctrl != nil {
			comp.Ctrl = netFor(m.Ctrl)
		}
		if len(placements) > 1 {
			comp.Shared = true
		}
	}

	// Output ports.
	for _, g := range s.m.Graphs {
		for _, b := range g.Blocks {
			if b.Kind == vhif.BOutput {
				nl.AddPort(b.Name, netlist.Out, netFor(b.Inputs[0]))
			}
		}
	}
	for _, c := range s.m.Controls {
		if c.Net != nil {
			nl.AddPort(c.Signal, netlist.Out, netFor(c.Net))
		}
	}
	return nl, nil
}

// FormatTree renders a traced decision tree (Figure 6 style).
func FormatTree(n *TreeNode) string {
	var b strings.Builder
	var rec func(n *TreeNode, depth int)
	rec = func(n *TreeNode, depth int) {
		indent := strings.Repeat("  ", depth)
		switch {
		case n.Complete:
			fmt.Fprintf(&b, "%s* complete mapping: %d op amps (area %.0f um^2)\n", indent, n.OpAmps, n.AreaUm2)
		case n.Pruned:
			fmt.Fprintf(&b, "%s- %s @ %s: pruned by bound (%d op amps)\n", indent, n.Decision, n.Block, n.OpAmps)
		default:
			fmt.Fprintf(&b, "%s+ %s @ %s (%d op amps so far)\n", indent, n.Decision, n.Block, n.OpAmps)
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if n != nil {
		rec(n, 0)
	}
	return b.String()
}
