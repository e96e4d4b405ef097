// Parallel branch-and-bound: the decision tree is split at its top levels
// into independent subtree tasks, each explored by a worker running the
// unchanged sequential search over its own partial-solution state. The only
// mutable state shared between workers is the incumbent best cost (an
// atomic compare-and-swap) and the global node budget.
//
// Determinism. Tasks are numbered in depth-first order of their decision
// paths, so the sequential search would visit task i's subtree entirely
// before task j's whenever i < j. The reduction picks the minimum-cost task
// result, breaking ties on the lowest task index, and each task internally
// keeps its first (depth-first) strict improvement — together this selects
// exactly the mapping the sequential search returns. Pruning preserves that
// choice because a subtree whose admissible lower bound *equals* the shared
// incumbent is only discarded when the incumbent was produced by a task at
// or before it in depth-first order (see sharedIncumbent.shouldPrune): an
// equal-cost mapping found in a *later* subtree can never suppress the
// canonical optimum, and a *strictly* better incumbent proves the subtree
// holds no improvement at all. The argument needs an admissible bound, so
// the heuristic StrongBound+sharing combination (documented inadmissible in
// Options) disables cross-task incumbent sharing and falls back to
// per-task-local pruning — still deterministic, but allowed to settle on a
// different equal-quality mapping than the sequential heuristic. FirstFit
// runs also skip incumbent sharing (no pruning can occur before a task's
// first completion, after which it stops) and reduce to the completion of
// the lowest-index task, i.e. the sequential first fit.
package mapper

import (
	"sync"
	"sync/atomic"
)

const (
	// tasksPerWorker oversubscribes the task queue so uneven subtree sizes
	// still keep every worker busy.
	tasksPerWorker = 4
	// maxSplitTasks caps the splitter; replaying deeper prefixes costs more
	// than the residual load-balancing gain.
	maxSplitTasks = 256
)

// incumbentRec is one immutable observation of the best complete mapping:
// its objective cost and the depth-first index of the task that found it.
type incumbentRec struct {
	cost float64
	src  int
}

// sharedIncumbent is the globally shared bound of the parallel search.
type sharedIncumbent struct {
	p atomic.Pointer[incumbentRec]
}

// offer publishes a complete mapping's cost found by task src. The stored
// record is the minimum over (cost, src) lexicographically, so the
// canonical-order tie-break survives concurrent updates.
func (si *sharedIncumbent) offer(cost float64, src int) {
	rec := &incumbentRec{cost: cost, src: src}
	for {
		cur := si.p.Load()
		if cur != nil && (cur.cost < cost || (cur.cost == cost && cur.src <= src)) {
			return
		}
		if si.p.CompareAndSwap(cur, rec) {
			return
		}
	}
}

// shouldPrune reports whether a subtree of task with lower bound lb is dead:
// strictly above the incumbent cost, or equal to it when the incumbent
// belongs to a task at or before this one in depth-first order.
func (si *sharedIncumbent) shouldPrune(lb float64, task int) bool {
	cur := si.p.Load()
	if cur == nil {
		return false
	}
	return lb > cur.cost || (lb == cur.cost && cur.src <= task)
}

// sharedState is the cross-worker coordination block.
type sharedState struct {
	// nodes is the shared node budget (Options.MaxNodes).
	nodes atomic.Int64
	// ffMin is the lowest task index that reached a feasible complete
	// mapping under FirstFit; tasks above it abort.
	ffMin atomic.Int64
	// bound is the shared incumbent, nil when cross-task pruning is
	// disabled (NoBounding, FirstFit, or an inadmissible bound).
	bound *sharedIncumbent
}

func (ss *sharedState) offerFirstFit(task int) {
	for {
		cur := ss.ffMin.Load()
		if int64(task) >= cur {
			return
		}
		if ss.ffMin.CompareAndSwap(cur, int64(task)) {
			return
		}
	}
}

// pathStep is one branching decision of a task's replayable prefix: the
// index into the block's memoized candidate list, and whether the match
// shares an existing component instead of allocating a dedicated one.
type pathStep struct {
	matchIdx int
	share    bool
}

// splitTask is one subtree of the decision tree, identified by the decision
// path from the root to its own root node.
type splitTask struct {
	path []pathStep
	// node is the task's attach point in the traced decision tree (nil
	// when tracing is off). The splitter owns all interior nodes; each
	// worker appends only to its own task's node, so the tree needs no
	// locking.
	node *TreeNode
	// terminal marks states with no further branching (a complete mapping
	// reached within the prefix, or a dead end); they still run as tasks so
	// completions are recorded.
	terminal bool
}

// fork clones the search's read-only tables into a fresh exploration state.
func (s *search) fork() *search {
	w := &search{
		m:             s.m,
		opts:          s.opts,
		order:         s.order,
		floorGeneral:  s.floorGeneral,
		floorDecision: s.floorDecision,
		matchTab:      s.matchTab,
		costOf:        s.costOf,
		bestArea:      inf,
		blockLB:       s.blockLB,
		remainingLB:   s.remainingLB,
		cancel:        s.cancel,
	}
	w.initState(len(s.covered))
	return w
}

// applyStep replays one prefix decision, reproducing exactly the placement
// run() would have performed on that branch.
func (w *search) applyStep(st pathStep) {
	c := &w.matchTab[w.nextUncovered(0)][st.matchIdx]
	if st.share {
		w.place(c, w.findShared(c), 0)
		return
	}
	cost, _ := w.matchCost(c)
	w.place(c, w.push(c, cost), c.match.OpAmps)
}

// expandSteps enumerates the branching decisions available at the replayed
// state, in the same order run() tries them (the sequencing rule, sharing
// before dedicated allocation). No bounding is applied: the splitter runs
// before any complete mapping exists, so the incumbent is infinite.
func (w *search) expandSteps() []pathStep {
	cur := w.nextUncovered(0)
	if cur < 0 {
		return nil
	}
	var steps []pathStep
	cands := w.matchTab[cur]
	for i := range cands {
		c := &cands[i]
		if w.conflicts(c) {
			continue
		}
		if _, ok := w.matchCost(c); !ok {
			continue
		}
		if !w.opts.NoSharing && w.findShared(c) >= 0 {
			steps = append(steps, pathStep{matchIdx: i, share: true})
		}
		steps = append(steps, pathStep{matchIdx: i, share: false})
	}
	return steps
}

// split expands the decision tree breadth-first from the root until at
// least target subtree tasks exist (or the tree has no more branching).
// The returned tasks are in depth-first order of their decision paths:
// level-synchronous expansion replaces each frontier entry by its children
// in branching order, which preserves the lexicographic path order.
func (s *search) split(target int) []*splitTask {
	frontier := []*splitTask{{node: s.root}}
	for grew := true; grew && len(frontier) < target; {
		if s.cancel != nil && s.cancel.Load() {
			// Cancelled while splitting: stop growing; the tasks themselves
			// observe the flag on their first visit.
			break
		}
		grew = false
		next := make([]*splitTask, 0, 2*len(frontier))
		for _, t := range frontier {
			if t.terminal {
				next = append(next, t)
				continue
			}
			w := s.fork()
			for _, st := range t.path {
				w.applyStep(st)
			}
			steps := w.expandSteps()
			if len(steps) == 0 {
				t.terminal = true
				next = append(next, t)
				continue
			}
			s.stats.NodesVisited++ // the expanded interior node
			grew = true
			cur := w.nextUncovered(0)
			for _, st := range steps {
				child := &splitTask{path: append(append([]pathStep{}, t.path...), st)}
				if t.node != nil {
					match := w.matchTab[cur][st.matchIdx].match
					decision, opamps := "alloc "+match.Name, w.opamps+match.OpAmps
					if st.share {
						decision, opamps = "share "+match.Name, w.opamps
					}
					child.node = &TreeNode{Block: match.Root.Name, Decision: decision, OpAmps: opamps}
					t.node.Children = append(t.node.Children, child.node)
				}
				next = append(next, child)
			}
		}
		frontier = next
	}
	return frontier
}

// runTask explores one subtree: replay the prefix on a fresh state, then
// run the sequential search from there under the shared bound and budget.
func (s *search) runTask(t *splitTask, idx int, shared *sharedState) *search {
	w := s.fork()
	w.task = idx
	w.shared = shared
	if w.opts.Trace {
		w.root = &TreeNode{}
		w.cursor = w.root
	}
	for _, st := range t.path {
		w.applyStep(st)
	}
	w.run(0)
	return w
}

// runParallel is the parallel counterpart of run(): split, fan out over a
// bounded worker pool, and reduce deterministically in task order.
func (s *search) runParallel() {
	workers := s.opts.Workers
	// Visit every candidate cost in deterministic order so the first
	// estimation error, if any, does not depend on scheduling.
	for _, cands := range s.matchTab {
		for i := range cands {
			s.matchCost(&cands[i])
		}
	}
	target := workers * tasksPerWorker
	if target > maxSplitTasks {
		target = maxSplitTasks
	}
	tasks := s.split(target)
	s.stats.Workers, s.stats.Tasks = workers, len(tasks)
	shared := &sharedState{}
	shared.nodes.Store(int64(s.stats.NodesVisited)) // splitter visits count against the budget
	shared.ffMin.Store(int64(len(tasks)))
	admissible := !s.opts.StrongBound || s.opts.NoSharing
	if !s.opts.NoBounding && !s.opts.FirstFit && admissible {
		shared.bound = &sharedIncumbent{}
	}
	if len(tasks) == 1 {
		// No branching to distribute: run the single subtree in place.
		s.reduce(tasks[0], s.runTask(tasks[0], 0, shared))
		return
	}

	results := make([]*search, len(tasks))
	queue := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				results[idx] = s.runTask(tasks[idx], idx, shared)
			}
		}()
	}
	for idx := range tasks {
		queue <- idx
	}
	close(queue)
	wg.Wait()

	for idx, w := range results {
		s.reduce(tasks[idx], w)
	}
}

// reduce folds one task result into the root search, in task order. For the
// exact search the winner is the minimum cost with the lowest task index;
// under FirstFit it is the completion of the lowest-index task.
func (s *search) reduce(t *splitTask, w *search) {
	s.stats.NodesVisited += w.stats.NodesVisited
	s.stats.CompleteMappings += w.stats.CompleteMappings
	s.stats.Pruned += w.stats.Pruned
	s.stats.Infeasible += w.stats.Infeasible
	s.truncated = s.truncated || w.truncated
	if s.err == nil {
		s.err = w.err
	}
	if t.node != nil && w.root != nil {
		t.node.Children = append(t.node.Children, w.root.Children...)
	}
	if w.best == nil {
		return
	}
	if s.opts.FirstFit {
		if s.best == nil {
			s.best, s.bestArea = w.best, w.bestArea
		}
		return
	}
	if w.bestArea < s.bestArea {
		s.best, s.bestArea = w.best, w.bestArea
	}
}
