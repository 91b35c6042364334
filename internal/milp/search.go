package milp

import (
	"container/heap"
	"math"
	"time"

	"pop/internal/lp"
	"pop/internal/obs"
)

// search is one branch-and-bound run: the persistent LP model every node
// relaxation is solved on, the applied-delta bookkeeping that says which
// variables currently carry node bounds on it, the open heap of unexplored
// nodes, the plunge child, the incumbent, and the pseudo-cost table.
type search struct {
	prob     *Problem
	opts     Options
	maximize bool
	deadline time.Time

	baseLB, baseUB []float64 // bounds snapshot, integer bounds rounded inward
	intVars        []int     // integer variables in ascending order

	model   *lp.Model
	applied map[int]bool
	// dive is the plunge child from the last branching, explored next so the
	// model stays one bound change away from the solve before it.
	dive *node
	// open holds the other unexplored nodes ordered by most promising bound;
	// each carries its parent's basis snapshot, so a best-bound jump
	// restarts warm.
	open nodeHeap
	// nodesStarted counts node relaxations begun, heuristic solves
	// excluded, and is the MaxNodes budget.
	nodesStarted int
	incumbent    []float64
	incumbentObj float64 // in maximization orientation
	haveInc      bool
	pc           *pseudoCosts
	earlyExit    bool    // node/time limit hit: Feasible, not Optimal
	exitBound    float64 // bestBound at the moment the limit fired

	stats     SearchStats
	rootBasis *lp.Basis
	// obs is the search observer shifted onto the node trace lane (nil when
	// the search runs without one); node relaxations are solved with it.
	obs *obs.Observer
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
	s.incumbentObj = math.Inf(-1)
	// A sorted branching order makes tie-breaks deterministic (map iteration
	// would jitter node and pivot counts run to run).
	s.intVars = sortedKeys(p.integer)
	s.pc = newPseudoCosts(p.LP.NumVariables())
	if o := s.opts.Obs; o != nil {
		s.obs = o.WithTID(o.TID + 1)
	}

	if !s.snapshotBounds() {
		return s.finish(Infeasible, 0), nil
	}
	s.model = lp.NewModelFromProblem(p.LP)
	for _, v := range s.intVars {
		s.model.SetBounds(v, s.baseLB[v], s.baseUB[v])
	}
	s.applied = map[int]bool{}

	root := &node{lb: map[int]float64{}, ub: map[int]float64{}, bound: math.Inf(1), pcVar: -1}
	if !s.opts.ColdNodes {
		root.basis = s.opts.RootBasis
	}
	rootSol, err := s.solveNode(root, false)
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
	s.tryRounding(rootSol)

	// The root takes the same branch/accept path as every other node.
	s.finishNode(root, rootSol)
	for {
		n := s.next()
		if n == nil {
			break
		}
		sol, err := s.solveNode(n, false)
		if err != nil {
			return nil, err
		}
		s.finishNode(n, sol)
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

// next returns the node to solve next: the plunge child when one is
// pending (its parent was solved last, so bounds and basis are one
// branching step away), otherwise the best-bound open node, whose carried
// snapshot makes the jump warm. Nodes the incumbent fathoms are dropped
// unsolved. It returns nil when the search is over: the tree is explored,
// the gap closed, or a node/time limit fired (earlyExit).
func (s *search) next() *node {
	for {
		if s.haveInc && s.gapClosed() {
			return nil
		}
		if s.nodesStarted >= s.opts.MaxNodes || (!s.deadline.IsZero() && time.Now().After(s.deadline)) {
			s.earlyExit = true
			s.exitBound = s.bestBound()
			return nil
		}
		var n *node
		switch {
		case s.dive != nil:
			n, s.dive = s.dive, nil
		case len(s.open) > 0:
			n = heap.Pop(&s.open).(*node)
			s.obs.Instant("milp.jump", nil)
		default:
			return nil
		}
		if s.haveInc && n.bound <= s.cutoff() {
			s.obs.Instant("milp.fathom", nil)
			continue // fathomed by bound
		}
		s.nodesStarted++
		return n
	}
}

// finishNode retires a solved node: it feeds the pseudo-cost table,
// accepts an integer-feasible relaxation as incumbent, fathoms against the
// combined absolute+relative cutoff, or branches.
func (s *search) finishNode(n *node, sol *lp.Solution) {
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
		// Integer feasible. Like a caller's incumbent (tryIncumbent), it must
		// also pass the original problem's feasibility check; a relaxation
		// that fails it has nothing left to branch on and is dropped.
		if obj > s.incumbentObj && s.prob.LP.CheckFeasible(sol.X, 1e-6) == nil {
			s.incumbentObj = obj
			s.incumbent = append([]float64(nil), sol.X...)
			s.haveInc = true
			s.obs.Instant("milp.incumbent", map[string]any{"obj": sol.Objective})
		}
		return
	}
	if s.haveInc && obj <= s.cutoff() {
		s.obs.Instant("milp.fathom", nil)
		return // fathomed by bound
	}
	s.branch(n, sol, v, f)
}

// branch splits node n on variable v (fractional part f of sol.X[v]). Both
// children carry the relaxation's basis snapshot — safe to share because
// SetBasis clones on install. The child the fractional value leans toward
// becomes the plunge target; the other joins the open heap.
func (s *search) branch(n *node, sol *lp.Solution, v int, f float64) {
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
	s.dive = dive
	heap.Push(&s.open, rest)
}

// cutoff is the fathoming threshold: a node whose bound cannot beat the
// incumbent by more than the combined absolute/relative gap tolerance is
// pruned — the same predicate gapClosed uses, so fathoming and termination
// agree.
func (s *search) cutoff() float64 {
	return s.incumbentObj + math.Max(absGap, s.opts.RelGap*math.Max(1, math.Abs(s.incumbentObj)))
}

// bestBound is the most optimistic bound over all unexplored nodes.
func (s *search) bestBound() float64 {
	bound := math.Inf(-1)
	if len(s.open) > 0 {
		bound = s.open[0].bound
	}
	if s.dive != nil && s.dive.bound > bound {
		bound = s.dive.bound
	}
	if math.IsInf(bound, -1) {
		bound = s.incumbentObj
	}
	return bound
}

func (s *search) gapClosed() bool {
	if s.dive == nil && len(s.open) == 0 {
		return true
	}
	gap := s.bestBound() - s.incumbentObj
	return gap <= absGap || gap <= s.opts.RelGap*math.Max(1, math.Abs(s.incumbentObj))
}

// solveNode solves the LP relaxation under the node's extra bounds: the
// node's bound deltas are applied to the model in place, the node's carried
// basis snapshot is installed (bound-only deltas keep it dual feasible, so
// the dual simplex settles it in a few pivots; an ineligible snapshot falls
// back primal-warm→cold inside lp), and the solve is booked into the
// search stats — as a node, warm or cold-fallback, or as a heuristic solve
// that counts toward neither and does not consume the MaxNodes budget.
func (s *search) solveNode(n *node, heuristic bool) (*lp.Solution, error) {
	if s.obs == nil {
		return s.solveNodeInner(n, heuristic)
	}
	sp := s.obs.Span("milp.node").Arg("depth", n.depth).Arg("heuristic", heuristic)
	sol, err := s.solveNodeInner(n, heuristic)
	if sol != nil {
		sp.Arg("status", sol.Status.String())
	}
	sp.End()
	return sol, err
}

func (s *search) solveNodeInner(n *node, heuristic bool) (*lp.Solution, error) {
	t0 := time.Now()
	s.applyBounds(n)
	warm := false
	if s.opts.ColdNodes || n.basis == nil {
		s.model.ForgetBasis()
	} else {
		s.model.SetBasis(n.basis)
		warm = true
	}
	s.stats.BuildNs += time.Since(t0).Nanoseconds()
	if heuristic {
		s.stats.HeuristicSolves++
	} else {
		s.stats.Nodes++
	}

	t0 = time.Now()
	sol, err := s.model.SolveWithOptions(lp.Options{Obs: s.obs})
	s.stats.SolveNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	s.stats.LPPivots += sol.Iterations
	s.stats.DualPivots += sol.DualPivots
	if warm && !heuristic {
		if sol.WarmStarted {
			s.stats.WarmNodes++
		} else {
			s.stats.ColdFallbacks++
		}
	}
	return sol, nil
}

// applyBounds switches the model from the previous node's bounds to n's:
// variables the previous node tightened but n does not return to their base
// bounds, and n's tightenings are applied (SetBounds no-ops on unchanged
// values, so a parent→child plunge costs one real edit).
func (s *search) applyBounds(n *node) {
	for v := range s.applied {
		_, inLB := n.lb[v]
		_, inUB := n.ub[v]
		if inLB || inUB {
			continue
		}
		s.model.SetBounds(v, s.baseLB[v], s.baseUB[v])
		delete(s.applied, v)
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
		s.model.SetBounds(v, lb, ub)
		s.applied[v] = true
	}
	for v, ub := range n.ub {
		if _, done := n.lb[v]; done {
			continue
		}
		lb := s.baseLB[v]
		if ub < lb {
			ub = lb
		}
		s.model.SetBounds(v, lb, ub)
		s.applied[v] = true
	}
}

// snapshotBounds records every variable's base bounds, rounding integer
// bounds inward (ceil the lower, floor the upper). It reports false when an
// integer variable's rounded bounds cross, which proves the MILP
// infeasible. The rounding is load-bearing: an integer whose domain holds no
// integer would otherwise branch into applyBounds' clamps until the node
// limit.
func (s *search) snapshotBounds() bool {
	const tol = 1e-9
	nv := s.prob.LP.NumVariables()
	s.baseLB = make([]float64, nv)
	s.baseUB = make([]float64, nv)
	for v := 0; v < nv; v++ {
		lo, hi := s.prob.LP.Bounds(v)
		if s.prob.integer[v] {
			if rl := math.Ceil(lo - tol); rl > lo {
				lo = rl
			}
			if ru := math.Floor(hi + tol); ru < hi {
				hi = ru
			}
			if lo > hi {
				return false
			}
		}
		s.baseLB[v] = lo
		s.baseUB[v] = hi
	}
	return true
}

// tryIncumbent validates and installs the caller-provided warm start. It
// judges feasibility against the original problem, whose bounds the node
// deltas never touch.
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
// integer vars are fixed at rounded values and the continuous LP re-solved,
// warm from the root basis. The re-solves are booked as HeuristicSolves,
// not Nodes, so they never consume the MaxNodes budget.
func (s *search) tryRounding(rootSol *lp.Solution) {
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
		sol, err := s.solveNode(fixed, true)
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
	sol := &Solution{Status: st, RootBasis: s.rootBasis, SearchStats: s.stats}
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
