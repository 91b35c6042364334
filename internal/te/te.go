// Package te implements the traffic engineering case study from §4.2 of the
// POP paper: path-based multi-commodity flow over a WAN topology, with the
// two objectives the paper evaluates (maximize total flow, maximize
// concurrent flow), an exact LP formulation, the POP adapter (resource
// splitting plus random commodity partitioning plus optional client
// splitting), and two baselines (CSPF and a simplified NCFlow).
package te

import (
	"fmt"
	"math"

	"pop/internal/core"
	"pop/internal/graph"
	"pop/internal/lp"
	"pop/internal/tm"
	"pop/internal/topo"
)

// Objective selects the TE optimization goal.
type Objective int8

const (
	// MaxTotalFlow maximizes Σ_j A_j (paper §4.2, "Maximize Total Flow").
	MaxTotalFlow Objective = iota
	// MaxConcurrentFlow maximizes min_j A_j/D_j, the minimum fractional
	// flow plotted in Figure 12.
	MaxConcurrentFlow
)

func (o Objective) String() string {
	switch o {
	case MaxTotalFlow:
		return "max-total-flow"
	case MaxConcurrentFlow:
		return "max-concurrent-flow"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Instance is a TE problem: a topology, a set of commodities, and the
// precomputed path set P (up to NumPaths shortest paths per commodity, as in
// NCFlow and the paper).
type Instance struct {
	Topo     *topo.Topology
	Demands  []tm.Demand
	NumPaths int

	// Paths[j] lists the candidate paths of demand j.
	Paths [][]*graph.Path
}

// NewInstance precomputes up to numPaths shortest paths (the paper's path
// budget; ≤ 0 selects the default of 4) for every commodity, once per
// (src, dst) pair: the distinct pairs are fanned out over the cores with
// core.ParallelMap, and commodities with the same pair share one path
// slice. Each pair's paths are computed alone, so the result does not
// depend on GOMAXPROCS. Commodities whose endpoints are disconnected or
// outside the topology get an empty path list (and can never receive
// flow).
func NewInstance(t *topo.Topology, demands []tm.Demand, numPaths int) *Instance {
	if numPaths <= 0 {
		numPaths = 4
	}
	inst := &Instance{Topo: t, Demands: demands, NumPaths: numPaths, Paths: make([][]*graph.Path, len(demands))}
	// Distinct in-range pairs in first-seen order; pairOf[j] indexes
	// demand j's pair, or is -1 if an endpoint is out of range.
	index := map[[2]int]int{}
	var pairs [][2]int
	pairOf := make([]int, len(demands))
	for j, d := range demands {
		pairOf[j] = -1
		if d.Src < 0 || d.Dst < 0 || d.Src >= t.G.N || d.Dst >= t.G.N {
			continue
		}
		key := [2]int{d.Src, d.Dst}
		p, ok := index[key]
		if !ok {
			p = len(pairs)
			index[key] = p
			pairs = append(pairs, key)
		}
		pairOf[j] = p
	}
	paths := make([][]*graph.Path, len(pairs))
	// The error is always nil: no call of f fails.
	_ = core.ParallelMap(len(pairs), true, func(p int) error {
		paths[p] = t.G.KShortestPaths(pairs[p][0], pairs[p][1], numPaths)
		return nil
	})
	for j, p := range pairOf {
		if p >= 0 {
			inst.Paths[j] = paths[p]
		}
	}
	return inst
}

// NumVariables reports the LP variable count of the exact formulation (one
// per commodity-path pair), the quantity Figure 3 of the paper reasons
// about.
func (inst *Instance) NumVariables() int {
	n := 0
	for _, ps := range inst.Paths {
		n += len(ps)
	}
	return n
}

// Allocation is the result of a TE solve.
type Allocation struct {
	// Flow[j] is the total flow granted to demand j across its paths.
	Flow []float64
	// PathFlow[j][p] is the flow of demand j on its p-th path.
	PathFlow [][]float64
	// EdgeFlow[e] is the aggregate flow crossing edge e.
	EdgeFlow []float64
	// TotalFlow is Σ_j Flow[j].
	TotalFlow float64
	// MinFraction is min_j Flow[j]/D_j over demands with D_j > 0.
	MinFraction float64
	// LPVariables is the number of LP variables solved (summed over
	// sub-problems for POP).
	LPVariables int
}

func newAllocation(inst *Instance) *Allocation {
	a := &Allocation{
		Flow:     make([]float64, len(inst.Demands)),
		PathFlow: make([][]float64, len(inst.Demands)),
		EdgeFlow: make([]float64, len(inst.Topo.G.Edges)),
	}
	for j := range inst.Demands {
		a.PathFlow[j] = make([]float64, len(inst.Paths[j]))
	}
	return a
}

// finalize computes Flow, EdgeFlow and the aggregate metrics from PathFlow.
func (a *Allocation) finalize(inst *Instance) {
	for e := range a.EdgeFlow {
		a.EdgeFlow[e] = 0
	}
	for j := range inst.Demands {
		fj := 0.0
		for p, f := range a.PathFlow[j] {
			fj += f
			for _, eid := range inst.Paths[j][p].Edges {
				a.EdgeFlow[eid] += f
			}
		}
		a.Flow[j] = fj
	}
	a.totals(inst)
}

// totals computes TotalFlow and MinFraction from Flow, for allocations whose
// flows are not (all) expressed in PathFlow.
func (a *Allocation) totals(inst *Instance) {
	a.TotalFlow = 0
	a.MinFraction = math.Inf(1)
	for j, d := range inst.Demands {
		a.TotalFlow += a.Flow[j]
		if d.Amount > 0 {
			a.MinFraction = math.Min(a.MinFraction, a.Flow[j]/d.Amount)
		}
	}
	if math.IsInf(a.MinFraction, 1) {
		a.MinFraction = 0
	}
}

// VerifyFeasible checks edge capacities and demand caps within tol,
// returning a descriptive error on violation. Used by tests and by the POP
// adapter's invariant checks.
func (a *Allocation) VerifyFeasible(inst *Instance, tol float64) error {
	for _, e := range inst.Topo.G.Edges {
		if a.EdgeFlow[e.ID] > e.Capacity+tol*(1+e.Capacity) {
			return fmt.Errorf("te: edge %d over capacity: %g > %g", e.ID, a.EdgeFlow[e.ID], e.Capacity)
		}
	}
	for j, d := range inst.Demands {
		if a.Flow[j] > d.Amount+tol*(1+d.Amount) {
			return fmt.Errorf("te: demand %d over-served: %g > %g", j, a.Flow[j], d.Amount)
		}
		if a.Flow[j] < -tol {
			return fmt.Errorf("te: demand %d negative flow %g", j, a.Flow[j])
		}
	}
	return nil
}

// SolveLP solves the exact path-based LP formulation from §4.2.
func SolveLP(inst *Instance, obj Objective, opts lp.Options) (*Allocation, error) {
	a, err := solveScaled(inst, obj, 1, opts)
	if err != nil {
		return nil, err
	}
	a.finalize(inst)
	return a, nil
}

// solveScaled solves the LP with every edge capacity divided by capScale: 1
// for the exact solve, k for a POP sub-problem (resource splitting). It
// fills PathFlow and LPVariables only: a POP merge derives the rest from
// the merged path flows, and SolveLP finalizes its own.
func solveScaled(inst *Instance, obj Objective, capScale float64, opts lp.Options) (*Allocation, error) {
	a := newAllocation(inst)
	if p, first := buildLP(inst, obj, capScale); p != nil {
		sol, err := p.SolveWithOptions(opts)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("te: LP not optimal: %v", sol.Status)
		}
		for j, v := range first {
			copy(a.PathFlow[j], sol.X[v:])
		}
		a.LPVariables = p.NumVariables()
	}
	return a, nil
}

// buildLP assembles the path LP, or returns nil when no demand is routable.
// Demand j's paths are variables first[j], first[j]+1, …, and t (concurrent
// flow) is last. Rows: each routable demand's cap (and fraction row), then
// one per used edge in ID order. The edge rows are CSR, built without maps:
// count each edge's entries, prefix-sum into offsets, place in variable order.
func buildLP(inst *Instance, obj Objective, capScale float64) (*lp.Model, []int) {
	objCoef := 0.0
	if obj == MaxTotalFlow {
		objCoef = 1
	}
	p := lp.NewModel(lp.Maximize)
	edges := inst.Topo.G.Edges
	first := make([]int, len(inst.Demands))
	rowPtr := make([]int, len(edges)+1)
	for j, d := range inst.Demands {
		first[j] = p.NumVariables()
		for _, path := range inst.Paths[j] {
			p.AddVariable(objCoef, 0, d.Amount, "")
			for _, eid := range path.Edges {
				rowPtr[eid+1]++
			}
		}
	}
	nv := p.NumVariables()
	if nv == 0 {
		return nil, nil
	}
	for e := range edges {
		rowPtr[e+1] += rowPtr[e]
	}
	vars := make([]int, rowPtr[len(edges)])
	next := append([]int(nil), rowPtr...)
	for j := range inst.Demands {
		for pi, path := range inst.Paths[j] {
			for _, eid := range path.Edges {
				vars[next[eid]] = first[j] + pi
				next[eid]++
			}
		}
	}
	// Rows share slices as long as any row, all ones and 0, 1, 2, …:
	// AddConstraint copies. A fraction row's append copies too (cap n).
	ones, seq := make([]float64, max(len(vars), nv)), make([]int, max(len(vars), nv))
	for i := range ones {
		ones[i], seq[i] = 1, i
	}

	tVar := -1
	if obj == MaxConcurrentFlow {
		tVar = p.AddVariable(1, 0, 1, "t")
	}

	// Demand caps: Σ_p x_{j,p} ≤ D_j, and for concurrent flow also
	// Σ_p x_{j,p} - t·D_j ≥ 0.
	for j, d := range inst.Demands {
		n := len(inst.Paths[j])
		if n == 0 {
			continue
		}
		idx := seq[first[j] : first[j]+n : first[j]+n]
		p.AddConstraint(idx, ones[:n], lp.LE, d.Amount, "demand")
		if obj == MaxConcurrentFlow && d.Amount > 0 {
			p.AddConstraint(append(idx, tVar), append(ones[:n:n], -d.Amount), lp.GE, 0, "fraction")
		}
	}

	// Edge capacities, scaled for POP's resource splitting.
	for e, edge := range edges {
		if lo, hi := rowPtr[e], rowPtr[e+1]; lo < hi {
			p.AddConstraint(vars[lo:hi], ones[:hi-lo], lp.LE, edge.Capacity/capScale, "edge")
		}
	}
	return p, first
}
