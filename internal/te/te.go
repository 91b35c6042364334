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

// PathCache memoizes k-shortest path sets per (src, dst) pair over one
// topology. It is the shared path-computation core of NewInstance and of the
// online TE engine, which routes commodities as they arrive instead of
// against a frozen demand list. Endpoints outside the topology yield an
// empty path set rather than a panic, so online callers can feed it
// unvalidated demands.
type PathCache struct {
	t     *topo.Topology
	k     int
	cache map[[2]int][]*graph.Path
}

// NewPathCache creates a cache computing up to numPaths shortest paths per
// commodity (the paper's path budget; ≤ 0 selects the default of 4).
func NewPathCache(t *topo.Topology, numPaths int) *PathCache {
	if numPaths <= 0 {
		numPaths = 4
	}
	return &PathCache{t: t, k: numPaths, cache: map[[2]int][]*graph.Path{}}
}

// NumPaths reports the per-commodity path budget.
func (pc *PathCache) NumPaths() int { return pc.k }

// Topology returns the topology the cache routes over.
func (pc *PathCache) Topology() *topo.Topology { return pc.t }

// Paths returns the cached path set from src to dst, computing it on first
// use. Disconnected or out-of-range endpoints get an empty set.
func (pc *PathCache) Paths(src, dst int) []*graph.Path {
	key := [2]int{src, dst}
	if p, ok := pc.cache[key]; ok {
		return p
	}
	var p []*graph.Path
	if src >= 0 && dst >= 0 && src < pc.t.G.N && dst < pc.t.G.N {
		p = pc.t.G.KShortestPaths(src, dst, pc.k)
	}
	pc.cache[key] = p
	return p
}

// NewInstance precomputes paths for every commodity. Commodities whose
// endpoints are disconnected get an empty path list (and can never receive
// flow). Path sets are cached per (src, dst) pair.
func NewInstance(t *topo.Topology, demands []tm.Demand, numPaths int) *Instance {
	pc := NewPathCache(t, numPaths)
	inst := &Instance{Topo: t, Demands: demands, NumPaths: pc.NumPaths()}
	inst.Paths = make([][]*graph.Path, len(demands))
	for j, d := range demands {
		inst.Paths[j] = pc.Paths(d.Src, d.Dst)
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
	return solveScaled(inst, obj, 1, nil, opts)
}

// solveScaled solves the LP with edge capacities divided by capScale and,
// when sub != nil, restricted to the demand indices in sub. This is the
// common core shared by the exact solve (capScale=1, all demands) and POP
// sub-problems (capScale=k, one partition).
func solveScaled(inst *Instance, obj Objective, capScale float64, sub []int, opts lp.Options) (*Allocation, error) {
	if sub == nil {
		sub = make([]int, len(inst.Demands))
		for j := range sub {
			sub[j] = j
		}
	}
	p := lp.NewModel(lp.Maximize)

	// One variable per (demand, path).
	type varRef struct{ j, p int }
	varOf := map[varRef]int{}
	edgeRows := make(map[int][]int)      // edge id -> var indices
	edgeCoefs := make(map[int][]float64) // parallel coefficients

	objCoef := 0.0
	if obj == MaxTotalFlow {
		objCoef = 1
	}
	for _, j := range sub {
		for pi, path := range inst.Paths[j] {
			v := p.AddVariable(objCoef, 0, inst.Demands[j].Amount, "")
			varOf[varRef{j, pi}] = v
			for _, eid := range path.Edges {
				edgeRows[eid] = append(edgeRows[eid], v)
				edgeCoefs[eid] = append(edgeCoefs[eid], 1)
			}
		}
	}
	if p.NumVariables() == 0 {
		// No routable demand in this sub-problem.
		a := newAllocation(inst)
		a.finalize(inst)
		return a, nil
	}

	var tVar = -1
	if obj == MaxConcurrentFlow {
		tVar = p.AddVariable(1, 0, 1, "t")
	}

	// Demand caps: Σ_p x_{j,p} ≤ D_j, and for concurrent flow also
	// Σ_p x_{j,p} - t·D_j ≥ 0.
	for _, j := range sub {
		if len(inst.Paths[j]) == 0 {
			continue
		}
		idx := make([]int, 0, len(inst.Paths[j])+1)
		coef := make([]float64, 0, len(inst.Paths[j])+1)
		for pi := range inst.Paths[j] {
			idx = append(idx, varOf[varRef{j, pi}])
			coef = append(coef, 1)
		}
		p.AddConstraint(idx, coef, lp.LE, inst.Demands[j].Amount, "demand")
		if obj == MaxConcurrentFlow && inst.Demands[j].Amount > 0 {
			idx2 := append(append([]int(nil), idx...), tVar)
			coef2 := append(append([]float64(nil), coef...), -inst.Demands[j].Amount)
			p.AddConstraint(idx2, coef2, lp.GE, 0, "fraction")
		}
	}

	// Edge capacities (scaled for POP's resource splitting). Iterate edges
	// in ID order so the row layout — and hence the simplex pivot sequence —
	// is deterministic.
	for eid := range inst.Topo.G.Edges {
		vars, used := edgeRows[eid]
		if !used {
			continue
		}
		cap := inst.Topo.G.Edges[eid].Capacity / capScale
		p.AddConstraint(vars, edgeCoefs[eid], lp.LE, cap, "edge")
	}

	sol, err := p.SolveWithOptions(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("te: LP not optimal: %v", sol.Status)
	}

	a := newAllocation(inst)
	for _, j := range sub {
		for pi := range inst.Paths[j] {
			a.PathFlow[j][pi] = sol.X[varOf[varRef{j, pi}]]
		}
	}
	a.finalize(inst)
	a.LPVariables = p.NumVariables()
	return a, nil
}

// ConcurrentFraction computes min_j Flow[j]/D_j for demands restricted to
// the given subset (used to score POP sub-allocations).
func ConcurrentFraction(inst *Instance, a *Allocation, sub []int) float64 {
	frac := math.Inf(1)
	for _, j := range sub {
		if d := inst.Demands[j].Amount; d > 0 {
			frac = math.Min(frac, a.Flow[j]/d)
		}
	}
	if math.IsInf(frac, 1) {
		return 0
	}
	return frac
}
