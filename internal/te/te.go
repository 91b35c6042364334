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

// newAllocation returns a zero allocation for inst. The PathFlow rows are
// consecutive windows of one array, each capped at its own length.
func newAllocation(inst *Instance) *Allocation {
	a := &Allocation{
		Flow:     make([]float64, len(inst.Demands)),
		PathFlow: make([][]float64, len(inst.Demands)),
		EdgeFlow: make([]float64, len(inst.Topo.G.Edges)),
	}
	flows := make([]float64, inst.NumVariables())
	for j, ps := range inst.Paths {
		a.PathFlow[j], flows = flows[:len(ps):len(ps)], flows[len(ps):]
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
	if cols, first := buildColumns(inst, obj, capScale); cols != nil {
		sol, err := cols.SolveWithOptions(opts)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("te: LP not optimal: %v", sol.Status)
		}
		for j, v := range first {
			copy(a.PathFlow[j], sol.X[v:])
		}
		a.LPVariables = len(cols.Cost)
	}
	return a, nil
}

// buildColumns writes the path LP in the solver's column form, or returns
// nil when no demand is routable. Demand j's paths are variables first[j],
// first[j]+1, …, and t (concurrent flow) is last. Rows: each routable
// demand's cap (and fraction row), then one per used edge in ID order.
//
// A path's column is its demand's rows, then its edges' rows ascending.
// Those come from transposing the edge rows, which are CSR built without
// maps or sorting: count each edge's entries, prefix-sum into offsets,
// place the variables in order; then walk the edges in ID order and append
// each edge's row to its variables' columns.
func buildColumns(inst *Instance, obj Objective, capScale float64) (*lp.Columns, []int) {
	concurrent := obj == MaxConcurrentFlow
	edges := inst.Topo.G.Edges
	// Count: variables, rows, and entries (each path's demand-row head,
	// its edges, t's fraction rows), and each edge's entries.
	first := make([]int, len(inst.Demands))
	rowPtr := make([]int32, len(edges)+1)
	nv, rows, nnz, nFrac := 0, 0, 0, 0
	for j, d := range inst.Demands {
		first[j] = nv
		ps := inst.Paths[j]
		if len(ps) == 0 {
			continue
		}
		nv += len(ps)
		rows, nnz = rows+1, nnz+len(ps)
		if concurrent && d.Amount > 0 {
			rows, nnz, nFrac = rows+1, nnz+len(ps)+1, nFrac+1
		}
		for _, path := range ps {
			for _, eid := range path.Edges {
				rowPtr[eid+1]++
			}
		}
	}
	if nv == 0 {
		return nil, nil
	}
	for e := range edges {
		if rowPtr[e+1] > 0 {
			rows++
		}
		rowPtr[e+1] += rowPtr[e]
	}
	onEdges := rowPtr[len(edges)]
	nnz += int(onEdges)

	n := nv
	if concurrent {
		n++ // t
	}
	objCoef := 0.0
	if obj == MaxTotalFlow {
		objCoef = 1
	}
	c := &lp.Columns{
		Objective: lp.Maximize,
		Cost:      make([]float64, n),
		Lower:     make([]float64, n),
		Upper:     make([]float64, n),
		ColPtr:    make([]int32, n+1),
		RowInd:    make([]int32, nnz),
		Values:    make([]float64, nnz),
		Sense:     make([]lp.Sense, rows),
		RHS:       make([]float64, rows),
	}

	// Demand caps: Σ_p x_{j,p} ≤ D_j, and for concurrent flow also
	// Σ_p x_{j,p} - t·D_j ≥ 0. They open each path's column, after which
	// next[v] is where its edge rows go; the fraction rows fill t's column,
	// the last. The edge rows' variables go into vars in variable order.
	vars := make([]int32, onEdges)
	next := make([]int32, nv)
	at, tAt := int32(0), int32(nnz-nFrac) // entry cursors: the path columns, t's
	r := int32(0)
	for j, d := range inst.Demands {
		ps := inst.Paths[j]
		if len(ps) == 0 {
			continue
		}
		frac := concurrent && d.Amount > 0
		c.Sense[r], c.RHS[r] = lp.LE, d.Amount
		if frac {
			c.Sense[r+1] = lp.GE
			c.RowInd[tAt], c.Values[tAt] = r+1, -d.Amount
			tAt++
		}
		for pi, path := range ps {
			v := first[j] + pi
			c.Cost[v], c.Upper[v] = objCoef, d.Amount
			c.RowInd[at], c.Values[at] = r, 1
			at++
			if frac {
				c.RowInd[at], c.Values[at] = r+1, 1
				at++
			}
			next[v] = at
			at += int32(len(path.Edges))
			c.ColPtr[v+1] = at
			for _, eid := range path.Edges {
				vars[rowPtr[eid]] = int32(v)
				rowPtr[eid]++
			}
		}
		r++
		if frac {
			r++
		}
	}
	// rowPtr[e] has moved to edge e's end: shift it back to its start.
	copy(rowPtr[1:], rowPtr[:len(edges)])
	rowPtr[0] = 0
	if concurrent {
		c.Cost[nv], c.Upper[nv] = 1, 1
		c.ColPtr[n] = int32(nnz)
	}

	// Edge capacities, scaled for POP's resource splitting.
	for e, edge := range edges {
		lo, hi := rowPtr[e], rowPtr[e+1]
		if lo == hi {
			continue
		}
		c.Sense[r], c.RHS[r] = lp.LE, edge.Capacity/capScale
		for _, v := range vars[lo:hi] {
			c.RowInd[next[v]], c.Values[next[v]] = r, 1
			next[v]++
		}
		r++
	}
	return c, first
}
