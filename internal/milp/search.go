package milp

import (
	"container/heap"
	"math"
	"sync"
	"time"

	"pop/internal/lp"
	"pop/internal/obs"
)

// worker owns everything one branch-and-bound goroutine mutates freely: a
// clone of the persistent LP model (sharing the immutable constraint matrix
// with its siblings copy-on-write), the applied-delta bookkeeping that says
// which variables currently carry node bounds on that model, an optional
// plunge child handed to it by its own last branching, and a private stats
// block merged into the solution after the search ends. Workers touch
// shared search state only through the coordinator's mutex.
type worker struct {
	id      int
	model   *lp.Model
	applied map[int]bool
	// dive is the plunge child from this worker's last branching, explored
	// next so the model stays one bound change away from the solve before
	// it. Written and consumed under search.mu.
	dive  *node
	stats SearchStats
	// obs is the search observer shifted onto this worker's trace lane (nil
	// when the search runs without one); node relaxations are solved with
	// it, so they trace on the worker's lane.
	obs *obs.Observer
}

// initWorker derives the worker's trace lane from the search's observer.
func (s *search) initWorker(w *worker) {
	if o := s.opts.Obs; o != nil {
		w.obs = o.WithTID(o.TID + 1 + w.id)
	}
}

// search is the branch-and-bound coordinator: the mutex-protected open heap
// workers steal best-bound nodes from, the incumbent, the pseudo-cost
// table, and the termination latch. The invariant the termination protocol
// rests on: outstanding == len(open) + (non-nil dives) + (in-flight nodes),
// so outstanding == 0 means the tree is fully explored.
type search struct {
	prob     *Problem
	opts     Options
	maximize bool
	deadline time.Time

	baseLB, baseUB []float64 // presolved bounds snapshot
	intVars        []int     // integer variables in ascending order

	mu   sync.Mutex
	cond *sync.Cond
	// open holds unexplored nodes ordered by most promising bound; each
	// carries its parent's basis snapshot so any worker restarts it warm.
	open nodeHeap
	// outstanding counts live nodes (open + dives + in flight); nodesStarted
	// counts node relaxations begun, heuristic solves excluded, and is the
	// MaxNodes budget.
	outstanding  int
	nodesStarted int
	// inFlight[w] is the bound of the node worker w is currently solving
	// (-Inf when idle); it keeps bestBound honest while the heap is empty.
	inFlight     []float64
	incumbent    []float64
	incumbentObj float64 // in maximization orientation
	haveInc      bool
	pc           *pseudoCosts
	stopped      bool
	earlyExit    bool    // node/time limit hit: Feasible, not Optimal
	exitBound    float64 // bestBound at the moment the limit fired
	err          error

	workers   []*worker
	rootBasis *lp.Basis
}

// orient converts an LP objective (original orientation) into the internal
// maximization orientation.
func (s *search) orient(v float64) float64 {
	if s.maximize {
		return v
	}
	return -v
}

func (s *search) run() (*Solution, error) {
	p := s.prob
	s.maximize = p.LP.ObjectiveSense() == lp.Maximize
	s.cond = sync.NewCond(&s.mu)
	s.incumbentObj = math.Inf(-1)
	s.inFlight = make([]float64, s.opts.Workers)
	for i := range s.inFlight {
		s.inFlight[i] = math.Inf(-1)
	}
	// A sorted branching order makes tie-breaks deterministic (map iteration
	// would jitter node and pivot counts run to run at Workers=1).
	s.intVars = sortedKeys(p.integer)
	s.pc = newPseudoCosts(p.LP.NumVariables())

	pre := presolve(p)
	if pre.infeasible {
		return s.finish(Infeasible, 0), nil
	}
	s.snapshotBounds(pre.lp)

	w0 := &worker{id: 0, model: lp.NewModelFromProblem(pre.lp), applied: map[int]bool{}}
	s.initWorker(w0)
	s.workers = append(s.workers, w0)

	root := &node{lb: map[int]float64{}, ub: map[int]float64{}, bound: math.Inf(1), pcVar: -1}
	if !s.opts.ColdNodes && !pre.reducedRows {
		root.basis = s.opts.RootBasis
	}
	rootSol, err := w0.solveNode(s, root, false)
	if err != nil {
		return nil, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		return s.finish(Infeasible, 0), nil
	case lp.Unbounded:
		return s.finish(Unbounded, 0), nil
	case lp.Optimal:
	default:
		return s.finish(Unknown, 0), nil
	}
	s.rootBasis = rootSol.Basis
	s.nodesStarted = 1

	// Warm start from a caller-provided incumbent, then the root rounding
	// heuristic; both run before any branching so the first fathom checks
	// already have a cutoff.
	s.tryIncumbent()
	s.tryRounding(w0, rootSol)

	// Route the root through the same branch/accept path as every other
	// node: count it outstanding, then retire-and-expand it.
	s.outstanding = 1
	s.finishNode(w0, root, rootSol)

	// Fan out: workers 1..W-1 get cheap clones of worker 0's model (same
	// bounds, same applied set, shared matrix) and every worker runs the
	// steal-solve-branch loop until the coordinator latches a stop.
	for i := 1; i < s.opts.Workers; i++ {
		w := &worker{id: i, model: w0.model.Clone(), applied: copyBoolMap(w0.applied)}
		s.initWorker(w)
		s.workers = append(s.workers, w)
	}
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go s.runWorker(w, &wg)
	}
	wg.Wait()
	if s.err != nil {
		return nil, s.err
	}

	switch {
	case s.earlyExit:
		return s.finish(Feasible, s.exitBound), nil
	case !s.haveInc:
		return s.finish(Infeasible, 0), nil
	default:
		return s.finish(Optimal, s.incumbentObj), nil
	}
}

func (s *search) runWorker(w *worker, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		n := s.next(w)
		if n == nil {
			return
		}
		sol, err := w.solveNode(s, n, false)
		if err != nil {
			s.fail(err)
			return
		}
		s.finishNode(w, n, sol)
	}
}

// next hands worker w its next node: the worker's own plunge child when one
// is pending (its parent solved last on this worker's model, so bounds and
// basis are one branching step away), otherwise the globally best-bound
// open node, whose carried snapshot makes the steal warm. It blocks while
// the heap is empty but other workers may still branch, and returns nil
// when the search is over.
func (s *search) next(w *worker) *node {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped || s.err != nil {
			return nil
		}
		if s.haveInc && s.gapClosedLocked() {
			s.stopLocked(false)
			return nil
		}
		if s.nodesStarted >= s.opts.MaxNodes || (!s.deadline.IsZero() && time.Now().After(s.deadline)) {
			s.stopLocked(true)
			return nil
		}
		var n *node
		switch {
		case w.dive != nil:
			n = w.dive
			w.dive = nil
		case len(s.open) > 0:
			n = heap.Pop(&s.open).(*node)
			w.obs.Instant("milp.steal", nil)
		default:
			if s.outstanding == 0 {
				s.stopLocked(false)
				return nil
			}
			s.cond.Wait()
			continue
		}
		if s.haveInc && n.bound <= s.cutoffLocked() {
			w.obs.Instant("milp.fathom", nil)
			s.retireLocked()
			continue // fathomed by bound
		}
		s.nodesStarted++
		s.inFlight[w.id] = n.bound
		return n
	}
}

// finishNode retires a solved node under the coordinator lock: it feeds the
// pseudo-cost table, accepts an integer-feasible relaxation as incumbent,
// fathoms against the combined absolute+relative cutoff, or branches.
func (s *search) finishNode(w *worker, n *node, sol *lp.Solution) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.cond.Broadcast()
	s.inFlight[w.id] = math.Inf(-1)
	s.outstanding--
	if sol.Status != lp.Optimal {
		return // infeasible subtree (unbounded cannot appear below the root)
	}
	obj := s.orient(sol.Objective)
	if n.pcVar >= 0 && !math.IsInf(n.bound, 1) {
		// The node was created by moving pcVar a fractional distance pcDist;
		// the objective degradation versus its parent is the observation.
		s.pc.observe(n.pcVar, n.pcUp, n.pcDist, math.Max(0, n.bound-obj))
	}
	n.bound = obj
	v, f := s.pc.selectBranch(s.intVars, sol.X, intTol)
	if v < 0 {
		// Integer feasible.
		if obj > s.incumbentObj {
			s.incumbentObj = obj
			s.incumbent = append([]float64(nil), sol.X...)
			s.haveInc = true
			w.obs.Instant("milp.incumbent", map[string]any{"obj": sol.Objective})
		}
		return
	}
	if s.stopped {
		return // a limit fired while this node was in flight
	}
	if s.haveInc && obj <= s.cutoffLocked() {
		w.obs.Instant("milp.fathom", nil)
		return // fathomed by bound
	}
	s.branchLocked(w, n, sol, v, f)
}

// branchLocked splits node n on variable v (fractional part f of sol.X[v]).
// Both children carry the relaxation's basis snapshot — safe to share now
// that SetBasis clones on install. The child the fractional value leans
// toward becomes this worker's plunge target; the other joins the open heap
// for any worker to steal.
func (s *search) branchLocked(w *worker, n *node, sol *lp.Solution, v int, f float64) {
	floor := math.Floor(sol.X[v])
	down := &node{lb: copyMap(n.lb), ub: copyMap(n.ub), bound: n.bound, depth: n.depth + 1,
		basis: sol.Basis, pcVar: v, pcDist: f, pcUp: false}
	tightenUB(down, v, floor)
	up := &node{lb: copyMap(n.lb), ub: copyMap(n.ub), bound: n.bound, depth: n.depth + 1,
		basis: sol.Basis, pcVar: v, pcDist: 1 - f, pcUp: true}
	tightenLB(up, v, floor+1)

	dive, rest := down, up
	if f >= 0.5 {
		dive, rest = up, down
	}
	w.dive = dive
	heap.Push(&s.open, rest)
	s.outstanding += 2
}

// cutoffLocked is the fathoming threshold: a node whose bound cannot beat
// the incumbent by more than the combined absolute/relative gap tolerance
// is pruned — the same predicate gapClosedLocked uses, so fathoming and
// termination agree (the sequential search compared against absGap alone
// and pointlessly solved nodes inside the relative gap).
func (s *search) cutoffLocked() float64 {
	return s.incumbentObj + math.Max(absGap, s.opts.RelGap*math.Max(1, math.Abs(s.incumbentObj)))
}

// bestBoundLocked is the most optimistic bound over all unexplored and
// in-flight nodes.
func (s *search) bestBoundLocked() float64 {
	bound := math.Inf(-1)
	if len(s.open) > 0 {
		bound = s.open[0].bound
	}
	for _, w := range s.workers {
		if w.dive != nil && w.dive.bound > bound {
			bound = w.dive.bound
		}
	}
	for _, b := range s.inFlight {
		if b > bound {
			bound = b
		}
	}
	if math.IsInf(bound, -1) {
		bound = s.incumbentObj
	}
	return bound
}

func (s *search) gapClosedLocked() bool {
	if s.outstanding == 0 {
		return true
	}
	gap := s.bestBoundLocked() - s.incumbentObj
	return gap <= absGap || gap <= s.opts.RelGap*math.Max(1, math.Abs(s.incumbentObj))
}

// retireLocked drops a node without solving it (fathomed at pop). The
// broadcast when the count hits zero releases workers blocked in next.
func (s *search) retireLocked() {
	s.outstanding--
	if s.outstanding == 0 {
		s.cond.Broadcast()
	}
}

// stopLocked latches termination; the first stopper decides the flavor
// (early = node/time limit → Feasible; otherwise the tree is explored or
// the gap closed → Optimal/Infeasible).
func (s *search) stopLocked(early bool) {
	if s.stopped {
		return
	}
	s.stopped = true
	if early {
		s.earlyExit = true
		s.exitBound = s.bestBoundLocked()
	}
	s.cond.Broadcast()
}

func (s *search) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	s.stopped = true
	s.cond.Broadcast()
}

// solveNode solves the LP relaxation under the node's extra bounds on this
// worker's model: the node's bound deltas are applied in place, the node's
// carried basis snapshot is installed (bound-only deltas keep it dual
// feasible, so the dual simplex settles it in a few pivots; an ineligible
// snapshot falls back primal-warm→cold inside lp), and the solve is booked
// into the worker's private stats — as a node, or as a heuristic solve that
// does not consume the MaxNodes budget.
func (w *worker) solveNode(s *search, n *node, heuristic bool) (*lp.Solution, error) {
	if w.obs == nil {
		return w.solveNodeInner(s, n, heuristic)
	}
	sp := w.obs.Span("milp.node").Arg("depth", n.depth).Arg("heuristic", heuristic)
	sol, err := w.solveNodeInner(s, n, heuristic)
	if sol != nil {
		sp.Arg("status", sol.Status.String())
	}
	sp.End()
	return sol, err
}

func (w *worker) solveNodeInner(s *search, n *node, heuristic bool) (*lp.Solution, error) {
	t0 := time.Now()
	w.applyBounds(s, n)
	warm := false
	if s.opts.ColdNodes || n.basis == nil {
		w.model.ForgetBasis()
	} else {
		w.model.SetBasis(n.basis)
		warm = true
	}
	w.stats.BuildNs += time.Since(t0).Nanoseconds()
	if heuristic {
		w.stats.HeuristicSolves++
	} else {
		w.stats.Nodes++
	}

	t0 = time.Now()
	sol, err := w.model.SolveWithOptions(lp.Options{Obs: w.obs})
	w.stats.SolveNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	w.stats.LPPivots += sol.Iterations
	w.stats.DualPivots += sol.DualPivots
	if warm {
		if sol.WarmStarted {
			w.stats.WarmNodes++
		} else {
			w.stats.ColdFallbacks++
		}
	}
	return sol, nil
}

// applyBounds switches this worker's model from its previous node's bounds
// to n's: variables the previous node tightened but n does not return to
// their base bounds, and n's tightenings are applied (SetBounds no-ops on
// unchanged values, so a parent→child plunge costs one real edit).
func (w *worker) applyBounds(s *search, n *node) {
	for v := range w.applied {
		_, inLB := n.lb[v]
		_, inUB := n.ub[v]
		if inLB || inUB {
			continue
		}
		w.model.SetBounds(v, s.baseLB[v], s.baseUB[v])
		delete(w.applied, v)
	}
	// Branching tightens lb upward and ub downward around fractional LP
	// values inside the current domain, so lb ≤ ub always holds; the clamps
	// below are purely defensive.
	for v, lb := range n.lb {
		ub := s.baseUB[v]
		if u, ok := n.ub[v]; ok && u < ub {
			ub = u
		}
		if lb > ub {
			lb = ub
		}
		w.model.SetBounds(v, lb, ub)
		w.applied[v] = true
	}
	for v, ub := range n.ub {
		if _, done := n.lb[v]; done {
			continue
		}
		lb := s.baseLB[v]
		if ub < lb {
			ub = lb
		}
		w.model.SetBounds(v, lb, ub)
		w.applied[v] = true
	}
}

func (s *search) snapshotBounds(p *lp.Problem) {
	nv := p.NumVariables()
	s.baseLB = make([]float64, nv)
	s.baseUB = make([]float64, nv)
	for v := 0; v < nv; v++ {
		lb, ub := p.Bounds(v)
		s.baseLB[v] = lb
		s.baseUB[v] = ub
	}
}

// tryIncumbent validates and installs the caller-provided warm start. It
// judges feasibility against the original problem, whose bounds neither
// presolve nor the per-worker node deltas ever touch.
func (s *search) tryIncumbent() {
	x := s.opts.Incumbent
	if x == nil {
		return
	}
	if err := s.prob.LP.CheckFeasible(x, 1e-6); err != nil {
		return
	}
	for _, v := range s.intVars {
		if math.Abs(x[v]-math.Round(x[v])) > intTol {
			return
		}
	}
	obj := s.orient(s.prob.LP.Value(x))
	if obj > s.incumbentObj {
		s.incumbentObj = obj
		s.incumbent = append([]float64(nil), x...)
		s.haveInc = true
	}
}

// tryRounding rounds the root relaxation and accepts it if feasible: all
// integer vars are fixed at rounded values and the continuous LP re-solved
// through worker 0's model, warm from the root basis. The re-solves are
// booked as HeuristicSolves, not Nodes, so they never consume the MaxNodes
// budget.
func (s *search) tryRounding(w *worker, rootSol *lp.Solution) {
	if len(s.prob.integer) == 0 {
		return
	}
	for _, round := range []func(float64) float64{math.Round, math.Floor} {
		fixed := &node{lb: map[int]float64{}, ub: map[int]float64{}, basis: rootSol.Basis, pcVar: -1}
		for _, v := range s.intVars {
			r := round(rootSol.X[v])
			if r < s.baseLB[v] {
				r = math.Ceil(s.baseLB[v])
			}
			if r > s.baseUB[v] {
				r = math.Floor(s.baseUB[v])
			}
			fixed.lb[v] = r
			fixed.ub[v] = r
		}
		sol, err := w.solveNode(s, fixed, true)
		if err != nil || sol.Status != lp.Optimal {
			continue
		}
		obj := s.orient(sol.Objective)
		if obj > s.incumbentObj {
			s.incumbentObj = obj
			s.incumbent = append([]float64(nil), sol.X...)
			s.haveInc = true
		}
		return
	}
}

func (s *search) finish(st Status, bound float64) *Solution {
	var stats SearchStats
	for _, w := range s.workers {
		stats.Add(w.stats)
	}
	sol := &Solution{Status: st, RootBasis: s.rootBasis, SearchStats: stats}
	if st == Infeasible || st == Unbounded {
		return sol
	}
	if !s.haveInc {
		sol.Status = Unknown
		return sol
	}
	obj := s.incumbentObj
	gap := math.Abs(bound-obj) / math.Max(1, math.Abs(obj))
	if st == Optimal {
		gap = 0
		bound = obj
	}
	objOut, boundOut := obj, bound
	if !s.maximize {
		objOut, boundOut = -obj, -bound
	}
	sol.Objective = objOut
	sol.X = s.incumbent
	sol.Bound = boundOut
	sol.Gap = gap
	return sol
}

func copyBoolMap(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
