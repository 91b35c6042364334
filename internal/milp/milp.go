// Package milp implements a mixed-integer linear-programming solver by
// branch and bound over the LP relaxations provided by package lp.
//
// The search is sequential best-first with plunging, over one persistent
// lp.Model. Each step takes the plunge child of the last branching if one
// is pending, or else the best-bound open node; applies the node's bound
// deltas to the model in place; installs the node's carried basis snapshot;
// solves; and then updates the pseudo-costs, accepts an integer-feasible
// point as incumbent, fathoms against the combined absolute+relative gap
// cutoff, or branches. A child node differs from its parent by a single
// variable-bound tightening — exactly the delta shape the dual simplex
// re-solves from a still-dual-feasible basis — so every node carries its
// parent's optimal basis snapshot and restarts warm in a handful of dual
// pivots (SetBasis clones on install, so a snapshot shared by both children
// is never observed mid-mutation). Plunging keeps the model one bound
// change away from its previous solve; a best-bound jump restarts warm off
// the carried snapshot. POP's parallelism is one level up: lb.SolvePOP runs
// its k sub-MILPs side by side, one search each.
//
// Branching is pseudo-cost seeded by most-fractional: per-variable
// objective degradations per unit of fractionality are learned from solved
// children, and before any observations exist the selection reduces to the
// most-fractional rule. Integer bounds are rounded inward once before the
// root relaxation, and crossed rounded bounds prove infeasibility without
// an LP solve. The root rounding heuristic re-solves warm from the root
// basis; heuristic re-solves are booked as SearchStats.HeuristicSolves and
// never consume the MaxNodes budget.
//
// Warm starts never change outcomes: an ineligible or failed dual start
// falls back to the primal warm path and then to a cold solve inside lp, so
// statuses and objectives match a cold-per-node search exactly
// (Options.ColdNodes selects the cold baseline, and the property suites
// hold warm vs cold to the same status, objective, and incumbent
// feasibility). The search is deterministic run to run. Solution embeds
// SearchStats so callers can attribute where a search spent its time.
//
// Termination criteria are absolute/relative gap, node limit, and
// wall-clock limit. This is what the load-balancing case study (§4.3 of the
// POP paper) uses: its formulation is a small MILP whose exponential solve
// time motivates POP in the first place.
package milp

import (
	"fmt"
	"sort"
	"time"

	"pop/internal/lp"
	"pop/internal/obs"
)

// Problem is a mixed-integer linear program: an lp.Problem plus a set of
// integer-constrained variables.
type Problem struct {
	LP *lp.Problem

	integer map[int]bool
}

// NewProblem wraps an LP under construction. Mark variables integral with
// SetInteger after adding them to the underlying LP.
func NewProblem(objective lp.Objective) *Problem {
	return &Problem{LP: lp.NewProblem(objective), integer: map[int]bool{}}
}

// Wrap turns an existing LP (e.g. one parsed from MPS) into a MILP.
func Wrap(p *lp.Problem, intVars []int) *Problem {
	mp := &Problem{LP: p, integer: map[int]bool{}}
	for _, v := range intVars {
		mp.SetInteger(v)
	}
	return mp
}

// SetInteger constrains variable v to take integer values.
func (p *Problem) SetInteger(v int) {
	if p.integer == nil {
		p.integer = map[int]bool{}
	}
	p.integer[v] = true
}

// AddBinary adds a {0,1} variable with objective coefficient c.
func (p *Problem) AddBinary(c float64, name string) int {
	v := p.LP.AddVariable(c, 0, 1, name)
	p.SetInteger(v)
	return v
}

// Options tune the branch-and-bound search.
type Options struct {
	// Workers is not read.
	//
	// Deprecated: ignored; the search is sequential.
	Workers int
	// MaxNodes bounds explored nodes (heuristic re-solves excluded); 0
	// means 200000.
	MaxNodes int
	// TimeLimit bounds wall-clock time; 0 means no limit.
	TimeLimit time.Duration
	// RelGap stops when (bound-incumbent)/max(1,|incumbent|) falls below it;
	// 0 means 1e-6.
	RelGap float64
	// Incumbent optionally warm-starts the search with a known feasible
	// point (e.g. from a domain heuristic); it is validated before use and
	// lets the search prune aggressively from the first node.
	Incumbent []float64
	// RootBasis optionally warm-starts the root relaxation with a basis
	// snapshot from an earlier solve of the same (or a perturbed) LP —
	// typically Solution.RootBasis of the previous round's search over the
	// same formulation. A snapshot that no longer fits is discarded inside
	// the LP solver, so seeding never changes outcomes.
	RootBasis *lp.Basis
	// ColdNodes disables every warm start inside the search: each node's
	// relaxation solves from scratch, reproducing the pre-persistent-model
	// cold-per-node search. The equivalence suite and lb's BenchmarkSearch
	// use it as the baseline; outcomes never differ, only pivot counts and
	// time.
	ColdNodes bool
	// Obs, when non-nil, receives search telemetry: a "milp.search" span
	// per solve, per-node "milp.node" spans on trace lane TID+1,
	// jump/fathom/incumbent instants, and search-level counters. The
	// observer is also threaded into every node's LP solve.
	// Nil — the default — costs one pointer check per node.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.RelGap == 0 {
		o.RelGap = 1e-6
	}
	return o
}

const (
	// absGap stops the search when bound-incumbent falls below it (the
	// absolute companion of Options.RelGap).
	absGap = 1e-9
	// intTol is the integrality tolerance.
	intTol = 1e-6
)

// Status reports the outcome of a MILP solve.
type Status int8

const (
	// Optimal means the incumbent is proven optimal within the gap.
	Optimal Status = iota
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unbounded means the relaxation (and hence the MILP) is unbounded.
	Unbounded
	// Feasible means the search stopped early (node/time limit) with an
	// incumbent but no optimality proof.
	Feasible
	// Unknown means the search stopped early with no incumbent.
	Unknown
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Feasible:
		return "feasible"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// SearchStats is the branch-and-bound accounting: how many node relaxations
// were solved, how many of them actually started warm, and where the time
// went. It mirrors online.Stats' build-vs-pivot split so benchmarks across
// the repository attribute time the same way.
type SearchStats struct {
	// Nodes counts solved node relaxations. HeuristicSolves counts LP
	// re-solves made by primal heuristics (root rounding); they are booked
	// separately and do not count against Options.MaxNodes, so a tiny node
	// budget cannot be exhausted before branching starts.
	Nodes           int
	HeuristicSolves int
	// LPPivots is the total simplex pivots across all node relaxations;
	// DualPivots is the subset taken by the dual simplex phase on the
	// bound-only node deltas.
	LPPivots, DualPivots int
	// WarmNodes counts node solves that accepted their parent's basis
	// snapshot — an infeasible node whose dual simplex certified the
	// verdict included; ColdFallbacks counts warm-eligible node solves
	// where the solver rejected the snapshot and fell back to a cold start.
	// Nodes without a basis (the root unless Options.RootBasis seeds it,
	// every node under Options.ColdNodes) and heuristic solves are in
	// neither bucket, so WarmNodes + ColdFallbacks ≤ Nodes.
	WarmNodes, ColdFallbacks int
	// BuildNs is time spent mutating the persistent model (bound deltas,
	// basis snapshots); SolveNs is time spent inside the LP solver.
	BuildNs, SolveNs int64
}

// Add accumulates other into s (POP sums its sub-searches this way).
func (s *SearchStats) Add(other SearchStats) {
	s.Nodes += other.Nodes
	s.HeuristicSolves += other.HeuristicSolves
	s.LPPivots += other.LPPivots
	s.DualPivots += other.DualPivots
	s.WarmNodes += other.WarmNodes
	s.ColdFallbacks += other.ColdFallbacks
	s.BuildNs += other.BuildNs
	s.SolveNs += other.SolveNs
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Bound is the best proven bound on the optimum (≥ incumbent for
	// maximization, ≤ for minimization at early exit).
	Bound float64
	// Gap is |Bound-Objective| / max(1, |Objective|) at exit.
	Gap float64
	// RootBasis is the root relaxation's optimal basis (nil when the root
	// did not solve to optimality). Feeding it to Options.RootBasis of a
	// later search over the same formulation — the next balancing round,
	// say — warm-starts that search's root.
	RootBasis *lp.Basis
	SearchStats
}

// node is one open subproblem of the branch-and-bound tree. The basis
// snapshot may be shared between siblings because SetBasis clones on
// install.
type node struct {
	// Extra bounds imposed by branching, keyed by variable.
	lb, ub map[int]float64
	bound  float64 // parent LP objective (optimistic)
	depth  int
	// basis is the parent relaxation's optimal basis snapshot: the node's
	// LP differs from the parent's by one bound tightening, so the snapshot
	// is still dual feasible and the dual simplex restarts from it.
	basis *lp.Basis
	// Pseudo-cost bookkeeping: the variable the parent branched on to
	// create this node, the fractional distance moved, and the direction.
	// pcVar is -1 for the root and heuristic nodes.
	pcVar  int
	pcDist float64
	pcUp   bool
}

// nodeHeap orders nodes by most promising bound (max-heap on bound for
// maximization problems; the solver normalizes to maximization internally).
type nodeHeap []*node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound with default options.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveWithOptions(Options{})
}

// SolveWithOptions runs branch and bound.
func (p *Problem) SolveWithOptions(opts Options) (*Solution, error) {
	if p.LP.NumVariables() == 0 {
		return nil, fmt.Errorf("milp: model has no variables")
	}
	s := &search{prob: p, opts: opts.withDefaults()}
	if s.opts.TimeLimit > 0 {
		s.deadline = time.Now().Add(s.opts.TimeLimit)
	}
	o := s.opts.Obs
	if o == nil {
		return s.run()
	}
	sp := o.Span("milp.search")
	start := time.Now()
	sol, err := s.run()
	if sol != nil {
		sp.Arg("status", sol.Status.String()).Arg("nodes", sol.Nodes)
	}
	sp.End()
	if err == nil && sol != nil {
		bookSearch(o, sol, time.Since(start))
	}
	return sol, err
}

func tightenUB(n *node, v int, val float64) {
	if cur, ok := n.ub[v]; !ok || val < cur {
		n.ub[v] = val
	}
}

func tightenLB(n *node, v int, val float64) {
	if cur, ok := n.lb[v]; !ok || val > cur {
		n.lb[v] = val
	}
}

func copyMap(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
