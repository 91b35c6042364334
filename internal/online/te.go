package online

import (
	"fmt"
	"slices"

	"pop/internal/graph"
	"pop/internal/lp"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

// teSubResult caches one sub-problem's last flow allocation, keyed by
// commodity id. paths freezes each commodity's path set as of the solve, so
// edge-flow composition stays consistent even if a commodity is re-routed
// before the next round.
type teSubResult struct {
	flows     map[int]float64
	pathFlow  map[int][]float64
	paths     map[int][]*graph.Path
	objective float64
	variables int
}

// teState is the domain state behind the traffic-engineering adapter.
type teState struct {
	obj     te.Objective
	k       int // POP sub-problem count: every edge runs at capacity/k
	paths   *te.PathCache
	demands map[int]tm.Demand
	dpaths  map[int][]*graph.Path // id -> current path set
	// routeGen counts a commodity's re-routes. It becomes the block's Gen,
	// so an endpoint change forces the engine to resplice the block even
	// when the new path set happens to have the old one's size — the shared
	// edge rows hold static per-path coefficients only SpliceBlock writes.
	routeGen map[int]int
	results  []*teSubResult
}

// TEEngine incrementally maintains a POP traffic-engineering allocation on
// the §4.2 path formulation: commodities arrive, depart, and shift demand;
// the engine keeps one mutable LP model per sub-problem (every sub-problem
// sees the whole topology at 1/k capacity — the paper's resource splitting)
// and re-solves only the dirtied ones. Under MaxTotalFlow a demand-only
// change is a pure rhs delta on the commodity's cap row, so re-plans ride
// the dual simplex from the previous basis — the regime WAN controllers
// live in, where traffic shifts every few minutes but the topology doesn't.
// Re-routing (a Src/Dst change) re-splices the commodity's block. Not safe
// for concurrent use.
type TEEngine struct {
	st  *teState
	eng *engine
}

// NewTEEngine creates a TE engine over the topology with K sub-problems.
// numPaths is the per-commodity path budget (≤ 0 selects the default of 4).
func NewTEEngine(t *topo.Topology, obj te.Objective, numPaths int, opts Options, lpOpts lp.Options) (*TEEngine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	st := &teState{
		obj:      obj,
		k:        opts.K,
		paths:    te.NewPathCache(t, numPaths),
		demands:  make(map[int]tm.Demand),
		dpaths:   make(map[int][]*graph.Path),
		routeGen: make(map[int]int),
		results:  make([]*teSubResult, opts.K),
	}
	eng, err := newEngine(&teAdapter{st}, opts, lpOpts)
	if err != nil {
		return nil, err
	}
	return &TEEngine{st: st, eng: eng}, nil
}

// Upsert adds commodity id or applies a change to it. Unchanged
// re-submissions are no-ops; an Amount-only change is the dual-simplex fast
// path; an endpoint change re-routes the commodity.
func (e *TEEngine) Upsert(id int, d tm.Demand) {
	old, ok := e.st.demands[id]
	if ok && old == d {
		return
	}
	e.st.demands[id] = d
	if !ok || old.Src != d.Src || old.Dst != d.Dst {
		e.st.dpaths[id] = e.st.paths.Paths(d.Src, d.Dst)
		e.st.routeGen[id]++
	}
	e.eng.t.upsert(id, d.Amount)
	if ok {
		e.eng.t.touch(id)
	}
}

// Remove drops commodity id; survivors keep their sub-problems.
func (e *TEEngine) Remove(id int) bool {
	if _, ok := e.st.demands[id]; !ok {
		return false
	}
	delete(e.st.demands, id)
	delete(e.st.dpaths, id)
	delete(e.st.routeGen, id)
	return e.eng.t.remove(id)
}

// NumDemands reports the number of live commodities.
func (e *TEEngine) NumDemands() int { return len(e.st.demands) }

// MarkAllDirty forces a full re-solve on the next Solve (benchmark and
// testing hook).
func (e *TEEngine) MarkAllDirty() { e.eng.t.markAllDirty() }

// Stats returns the engine's work counters.
func (e *TEEngine) Stats() Stats { return e.eng.t.stats }

// Solve re-solves every dirty sub-problem from its persistent model.
func (e *TEEngine) Solve() error {
	e.eng.t.rebalance()
	return e.eng.solveRound()
}

// Objective sums the sub-problem objectives — the checksum the equivalence
// tests compare against a cold full solve (for MaxTotalFlow it equals
// TotalFlow).
func (e *TEEngine) Objective() float64 {
	total := 0.0
	for _, r := range e.st.results {
		if r != nil {
			total += r.objective
		}
	}
	return total
}

// Flow returns the last solved total flow of commodity id (0 if unknown or
// unroutable).
func (e *TEEngine) Flow(id int) float64 {
	p, ok := e.eng.t.partOf[id]
	if !ok || e.st.results[p] == nil {
		return 0
	}
	return e.st.results[p].flows[id]
}

// TotalFlow sums the granted flow over all commodities.
func (e *TEEngine) TotalFlow() float64 {
	total := 0.0
	for _, r := range e.st.results {
		if r == nil {
			continue
		}
		for _, f := range r.flows {
			total += f
		}
	}
	return total
}

// EdgeFlows composes the aggregate per-edge flow across sub-problems, in
// edge-ID order — feasible against full capacities by construction, since
// each sub-problem respected capacity/k.
func (e *TEEngine) EdgeFlows() []float64 {
	out := make([]float64, len(e.st.paths.Topology().G.Edges))
	for _, r := range e.st.results {
		if r == nil {
			continue
		}
		for id, pf := range r.pathFlow {
			for pi, f := range pf {
				for _, eid := range r.paths[id][pi].Edges {
					out[eid] += f
				}
			}
		}
	}
	return out
}

// teAdapter is the Adapter for the path-based TE formulation: one block per
// routable commodity.
//
// Block layout: a commodity's block holds one flow variable per candidate
// path and its demand-cap row (Σ_p x ≤ D_j); under MaxConcurrentFlow also
// its fraction row (Σ_p x − D_j·t ≥ 0). Commodities with no route have no
// block at all. The shared min-fraction variable t (concurrent flow only)
// trails the block variables; one capacity row per topology edge — present
// even while no current path crosses the edge, so the shared-row shape
// never changes — trails the block rows at rhs capacity/k. Flow-variable
// upper bounds stay infinite: the cap row already enforces the demand, so
// an Amount change is a single rhs edit, not a bound sweep.
type teAdapter struct {
	*teState
}

func (ad *teAdapter) rowsPer() int {
	if ad.obj == te.MaxConcurrentFlow {
		return 2
	}
	return 1
}

func (ad *teAdapter) objCoef() float64 {
	if ad.obj == te.MaxTotalFlow {
		return 1
	}
	return 0
}

func (ad *teAdapter) Layout(p int, ids []int, layout []Block) []Block {
	rows := ad.rowsPer()
	for _, id := range ids {
		np := len(ad.dpaths[id])
		if np == 0 {
			continue // unroutable: no variables, no rows, zero flow
		}
		layout = append(layout, Block{Key: BlockKey{id, NoPartner}, Vars: np, Rows: rows, Gen: ad.routeGen[id]})
	}
	return layout
}

func (ad *teAdapter) BuildModel(p int, layout []Block) *lp.Model {
	edges := ad.paths.Topology().G.Edges
	m := lp.NewModel(lp.Maximize)
	for _, b := range layout {
		m.AddVariables(b.Vars, ad.objCoef(), 0, lp.Inf)
	}
	tv := -1
	if ad.obj == te.MaxConcurrentFlow {
		tv = m.AddVariable(1, 0, 1, "t")
	}

	varAt := 0
	edgeVars := make([][]int, len(edges))
	for _, b := range layout {
		d := ad.demands[b.Key.A]
		vars := make([]int, b.Vars)
		ones := make([]float64, b.Vars)
		for i := range vars {
			vars[i] = varAt + i
			ones[i] = 1
		}
		m.AddConstraint(vars, ones, lp.LE, d.Amount, "demand")
		if tv >= 0 {
			m.AddConstraint(append(slices.Clone(vars), tv), append(slices.Clone(ones), -d.Amount), lp.GE, 0, "fraction")
		}
		for pi, path := range ad.dpaths[b.Key.A] {
			for _, eid := range path.Edges {
				edgeVars[eid] = append(edgeVars[eid], varAt+pi)
			}
		}
		varAt += b.Vars
	}
	for eid := range edges {
		ones := make([]float64, len(edgeVars[eid]))
		for i := range ones {
			ones[i] = 1
		}
		m.AddConstraint(edgeVars[eid], ones, lp.LE, edges[eid].Capacity/float64(ad.k), "edge")
	}
	return m
}

// SpliceBlock inserts a commodity block: its path-flow variables, its cap
// (and fraction) rows, and its static unit entries in the shared edge rows.
// The data-dependent rhs and t coefficient are left to RefreshModel.
func (ad *teAdapter) SpliceBlock(m *lp.Model, p int, b Block, varAt, rowAt int) {
	m.InsertVariables(varAt, b.Vars, ad.objCoef(), 0, lp.Inf)
	vars := make([]int, b.Vars)
	ones := make([]float64, b.Vars)
	for i := range vars {
		vars[i] = varAt + i
		ones[i] = 1
	}
	m.InsertConstraint(rowAt, vars, ones, lp.LE, 0, "demand")
	if ad.obj == te.MaxConcurrentFlow {
		tv := m.NumVariables() - 1
		m.InsertConstraint(rowAt+1, append(slices.Clone(vars), tv), append(slices.Clone(ones), 0), lp.GE, 0, "fraction")
	}
	nEdges := len(ad.paths.Topology().G.Edges)
	edgeRowBase := m.NumConstraints() - nEdges
	for pi, path := range ad.dpaths[b.Key.A] {
		for _, eid := range path.Edges {
			m.SetCoeff(edgeRowBase+eid, varAt+pi, 1)
		}
	}
}

// RefreshModel rewrites each commodity's demand: the cap-row rhs, and under
// MaxConcurrentFlow the fraction row's t coefficient. Edge rows are static
// (unit entries, capacities fixed at 1/k since construction).
func (ad *teAdapter) RefreshModel(m *lp.Model, p int, layout []Block) {
	rows := ad.rowsPer()
	tv := m.NumVariables() - 1
	for bi, b := range layout {
		d := ad.demands[b.Key.A]
		m.SetRHS(bi*rows, d.Amount)
		if rows == 2 {
			m.SetCoeff(bi*rows+1, tv, -d.Amount)
		}
	}
}

func (ad *teAdapter) Extract(p int, layout []Block, sol *lp.Solution, nVars int) error {
	res := &teSubResult{
		flows:     make(map[int]float64, len(layout)),
		pathFlow:  make(map[int][]float64, len(layout)),
		paths:     make(map[int][]*graph.Path, len(layout)),
		variables: nVars,
	}
	if sol != nil {
		if sol.Status != lp.Optimal {
			return fmt.Errorf("te %v LP %v", ad.obj, sol.Status)
		}
		varAt := 0
		for _, b := range layout {
			id := b.Key.A
			pf := make([]float64, b.Vars)
			copy(pf, sol.X[varAt:varAt+b.Vars])
			total := 0.0
			for _, f := range pf {
				total += f
			}
			res.flows[id] = total
			res.pathFlow[id] = pf
			res.paths[id] = ad.dpaths[id]
			varAt += b.Vars
		}
		res.objective = sol.Objective
	}
	ad.results[p] = res
	return nil
}

func (ad *teAdapter) Clear(p int) { ad.results[p] = &teSubResult{} }
