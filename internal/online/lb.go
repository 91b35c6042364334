package online

import (
	"fmt"
	"math"
	"slices"

	"pop/internal/core"
	"pop/internal/lb"
	"pop/internal/lp"
)

// lbSubResult caches one sub-problem's last assignment, in local (member,
// partition-server) coordinates.
type lbSubResult struct {
	ids       []int
	index     map[int]int
	frac      [][]float64
	placed    [][]bool
	objective float64
	variables int
	optimal   bool
}

// lbState is the domain state behind the shard-balancing adapter.
type lbState struct {
	servers []lb.Server
	groups  [][]int // partition -> indices into servers
	shards  map[int]lb.Shard
	// placed[id] is the shard's current placement over its partition's
	// servers (local order) — the cost anchor of the movement objective.
	placed  map[int][]bool
	results []*lbSubResult
	tolFrac float64
	haveTol bool
}

// LBEngine incrementally maintains a POP shard-balancing assignment on the
// continuous relaxation of the §4.3 formulation: shard load changes patch
// the persistent sub-problem models in place (band right-hand sides and
// load coefficients), so a re-solve pays pivots, not construction; a
// tolerance-only change is a pure rhs delta and rides the dual simplex.
// Servers are split across sub-problems once, at the first Step. Not safe
// for concurrent use.
type LBEngine struct {
	st  *lbState
	eng *engine
}

// NewLBEngine creates a shard-balancing engine with K sub-problems.
func NewLBEngine(opts Options, lpOpts lp.Options) (*LBEngine, error) {
	st := &lbState{shards: make(map[int]lb.Shard), placed: make(map[int][]bool)}
	eng, err := newEngine(&lbAdapter{st}, opts, lpOpts)
	if err != nil {
		return nil, err
	}
	st.results = make([]*lbSubResult, opts.K)
	return &LBEngine{st: st, eng: eng}, nil
}

// Stats returns the engine's work counters.
func (e *LBEngine) Stats() Stats { return e.eng.stats }

// MarkAllDirty makes the next Step rebuild and solve every sub-problem cold:
// it drops every model. It is the cold baseline the equivalence tests and
// BenchmarkOnlineRound hold warm rounds to.
func (e *LBEngine) MarkAllDirty() { e.eng.markAllCold() }

// Objective sums the sub-problem objectives (relaxed moved bytes) — the
// checksum the equivalence tests compare against a cold full solve.
func (e *LBEngine) Objective() float64 {
	total := 0.0
	for _, r := range e.st.results {
		if r != nil {
			total += r.objective
		}
	}
	return total
}

// syncServers (re)installs the server pool. Any capacity change dirties
// every sub-problem and invalidates the persistent models (the per-server
// block shape may have changed).
func (e *LBEngine) syncServers(servers []lb.Server) error {
	k := e.eng.opts.K
	if len(servers) < k {
		return fmt.Errorf("online: %d servers cannot back %d sub-problems", len(servers), k)
	}
	if slices.Equal(e.st.servers, servers) {
		return nil
	}
	e.st.servers = append([]lb.Server(nil), servers...)
	e.st.groups = core.Partition(len(servers), k, core.RoundRobin, 0, nil)
	e.eng.markAllCold()
	return nil
}

// Step diffs the instance against engine state (shard arrivals, departures,
// load/memory changes, placement drift, server changes), re-solves the
// dirtied sub-problems from their persistent models, and returns the
// composed assignment in the instance's coordinates. It has lb.Solver's
// shape via Solver.
func (e *LBEngine) Step(inst *lb.Instance) (*lb.Assignment, error) {
	if len(inst.Shards) == 0 || len(inst.Servers) == 0 {
		return nil, fmt.Errorf("online: empty instance")
	}
	if err := e.syncServers(inst.Servers); err != nil {
		return nil, err
	}
	eng := e.eng
	if !e.st.haveTol || e.st.tolFrac != inst.TolFrac {
		if e.st.haveTol {
			eng.markAllDirty()
		}
		e.st.tolFrac = inst.TolFrac
		e.st.haveTol = true
	}

	// Shard arrivals and changes.
	seen := make(map[int]bool, len(inst.Shards))
	rowOf := make(map[int]int, len(inst.Shards))
	for row, s := range inst.Shards {
		seen[s.ID] = true
		rowOf[s.ID] = row
		old, ok := e.st.shards[s.ID]
		e.st.shards[s.ID] = s
		p := eng.upsert(s.ID, s.Load)
		if ok && (old.Load != s.Load || old.Mem != s.Mem) {
			eng.touch(s.ID)
		}
		// Placement drift dirties too: it anchors the movement costs.
		local := localPlacement(inst.Placement[row], e.st.groups[p])
		if ok && !slices.Equal(e.st.placed[s.ID], local) {
			eng.touch(s.ID)
		}
		e.st.placed[s.ID] = local
	}
	// Departures.
	var gone []int
	for id := range e.st.shards {
		if !seen[id] {
			gone = append(gone, id)
		}
	}
	for _, id := range gone {
		delete(e.st.shards, id)
		delete(e.st.placed, id)
		eng.remove(id)
	}

	// A rebalance move changes a shard's partition, and with it the local
	// coordinates of its placement anchor; move first, then refresh the
	// anchors so the dirtied sub-problems solve against consistent costs.
	if eng.opts.Rebalance {
		eng.rebalance()
		for id, row := range rowOf {
			e.st.placed[id] = localPlacement(inst.Placement[row], e.st.groups[eng.partOf[id]])
		}
	}
	if err := e.eng.solveRound(); err != nil {
		return nil, err
	}
	return e.compose(inst, rowOf)
}

// Solver adapts the engine to lb.RunRounds' round loop.
func (e *LBEngine) Solver() lb.Solver {
	return func(inst *lb.Instance) (*lb.Assignment, error) { return e.Step(inst) }
}

func localPlacement(full []bool, group []int) []bool {
	out := make([]bool, len(group))
	for li, j := range group {
		out[li] = full[j]
	}
	return out
}

// lbAdapter is the Adapter for the relaxed §4.3 shard balancer: one block
// per shard.
//
// Block layout, for n shards over mS partition servers: block i holds the
// shard's mS serving fractions then its mS placement indicators, and its mS
// linking rows then its coverage row; the shared per-server load-band and
// memory rows (3 per server) trail the block rows. There are no shared
// variables.
type lbAdapter struct {
	*lbState
}

func (ad *lbAdapter) Layout(p int, ids []int, layout []Block) []Block {
	mS := len(ad.groups[p])
	for _, id := range ids {
		layout = append(layout, Block{Key: BlockKey{id, NoPartner}, Vars: 2 * mS, Rows: mS + 1})
	}
	return layout
}

func (ad *lbAdapter) memberData(layout []Block) ([]lb.Shard, [][]bool) {
	members := make([]lb.Shard, len(layout))
	placement := make([][]bool, len(layout))
	for i, b := range layout {
		members[i] = ad.shards[b.Key.A]
		placement[i] = ad.placed[b.Key.A]
	}
	return members, placement
}

func (ad *lbAdapter) BuildModel(p int, layout []Block) *lp.Model {
	members, placement := ad.memberData(layout)
	return buildLBModel(members, placement, ad.subServers(p), ad.tolFrac)
}

// SpliceBlock inserts a shard block: mS serving fractions, mS placement
// indicators, the linking rows, and the coverage row. The shard's columns in
// the shared band/memory rows and its movement costs are left to
// RefreshModel.
func (ad *lbAdapter) SpliceBlock(m *lp.Model, p int, b Block, varAt, rowAt int) {
	mS := len(ad.groups[p])
	m.InsertVariables(varAt, mS, 0, 0, 1)    // serving fractions
	m.InsertVariables(varAt+mS, mS, 0, 0, 1) // placement indicators
	aIdxs := make([]int, mS)
	ones := make([]float64, mS)
	for j := 0; j < mS; j++ {
		m.InsertConstraint(rowAt+j, []int{varAt + j, varAt + mS + j}, []float64{1, -1}, lp.LE, 0, "link")
		aIdxs[j] = varAt + j
		ones[j] = 1
	}
	m.InsertConstraint(rowAt+mS, aIdxs, ones, lp.EQ, 1, "cover")
}

// RefreshModel rewrites the data-dependent values: movement costs per
// member, the shared band and memory rows through the bulk setter (one pass
// per row, not per member).
func (ad *lbAdapter) RefreshModel(m *lp.Model, p int, layout []Block) {
	members, placement := ad.memberData(layout)
	group := ad.groups[p]
	mS := len(group)
	n := len(members)
	total := 0.0
	for _, s := range members {
		total += s.Load
	}
	L := total / float64(mS)
	eps := ad.tolFrac * L
	sr := n * (mS + 1) // first shared row
	aVar := func(i, j int) int { return i*2*mS + j }
	mVar := func(i, j int) int { return i*2*mS + mS + j }
	for i, s := range members {
		for j := 0; j < mS; j++ {
			cost := s.Mem
			if placement[i][j] {
				cost = 0
			}
			m.SetObjectiveCoeff(mVar(i, j), cost)
		}
	}
	aIdx := make([]int, n)
	loads := make([]float64, n)
	mIdx := make([]int, n)
	mems := make([]float64, n)
	for j := 0; j < mS; j++ {
		for i, s := range members {
			aIdx[i] = aVar(i, j)
			loads[i] = s.Load
			mIdx[i] = mVar(i, j)
			mems[i] = s.Mem
		}
		m.SetCoeffs(sr+3*j, aIdx, loads)   // loadhi
		m.SetCoeffs(sr+3*j+1, aIdx, loads) // loadlo
		m.SetCoeffs(sr+3*j+2, mIdx, mems)  // mem
		m.SetRHS(sr+3*j, L+eps)
		m.SetRHS(sr+3*j+1, L-eps)
		m.SetRHS(sr+3*j+2, ad.servers[group[j]].MemCap)
	}
}

func (ad *lbAdapter) Extract(p int, layout []Block, sol *lp.Solution, nVars int) error {
	mS := len(ad.groups[p])
	ids := soloIDs(layout)
	res := &lbSubResult{
		ids:       slices.Clone(ids),
		index:     make(map[int]int, len(ids)),
		frac:      make([][]float64, len(ids)),
		placed:    make([][]bool, len(ids)),
		variables: nVars,
	}
	for i, id := range ids {
		res.index[id] = i
	}
	if sol.Status != lp.Optimal {
		// Band infeasible in this sub-problem: greedy best effort, like the
		// batch solvers do.
		members, placement := ad.memberData(layout)
		g := lb.SolveGreedy(ad.subInstance(members, placement, p))
		res.frac, res.placed = g.Frac, g.Placed
		res.objective = g.MovedBytes
		ad.results[p] = res
		return nil
	}
	for i := range ids {
		res.frac[i] = make([]float64, mS)
		res.placed[i] = make([]bool, mS)
		base := i * 2 * mS
		for s := 0; s < mS; s++ {
			res.frac[i][s] = sol.X[base+s]
			res.placed[i][s] = sol.X[base+s] > 1e-6
		}
	}
	res.objective = sol.Objective
	res.optimal = true
	ad.results[p] = res
	return nil
}

func (ad *lbAdapter) Clear(p int) {
	ad.results[p] = &lbSubResult{index: map[int]int{}, optimal: true}
}

func (st *lbState) subServers(p int) []lb.Server {
	out := make([]lb.Server, len(st.groups[p]))
	for li, j := range st.groups[p] {
		out[li] = st.servers[j]
	}
	return out
}

func (st *lbState) subInstance(members []lb.Shard, placement [][]bool, p int) *lb.Instance {
	return &lb.Instance{
		Shards:    members,
		Servers:   st.subServers(p),
		TolFrac:   st.tolFrac,
		Placement: placement,
	}
}

// compose stitches the per-partition local assignments back onto the
// instance's (shard row, server column) coordinates and computes the
// round's movement and deviation metrics.
func (e *LBEngine) compose(inst *lb.Instance, rowOf map[int]int) (*lb.Assignment, error) {
	n, m := len(inst.Shards), len(inst.Servers)
	out := &lb.Assignment{
		Frac:    make([][]float64, n),
		Placed:  make([][]bool, n),
		Optimal: true,
	}
	for i := 0; i < n; i++ {
		out.Frac[i] = make([]float64, m)
		out.Placed[i] = make([]bool, m)
	}
	for p, res := range e.st.results {
		if res == nil {
			continue
		}
		out.Variables += res.variables
		out.Optimal = out.Optimal && res.optimal
		for li, id := range res.ids {
			row, ok := rowOf[id]
			if !ok {
				return nil, fmt.Errorf("online: stale shard %d in sub-problem %d", id, p)
			}
			for ls, j := range e.st.groups[p] {
				out.Frac[row][j] = res.frac[li][ls]
				out.Placed[row][j] = res.placed[li][ls]
			}
		}
	}

	L := inst.AvgLoad()
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if out.Placed[i][j] && !inst.Placement[i][j] {
				out.Movements++
				out.MovedBytes += inst.Shards[i].Mem
			}
		}
	}
	for j := 0; j < m; j++ {
		load := 0.0
		for i := 0; i < n; i++ {
			load += out.Frac[i][j] * inst.Shards[i].Load
		}
		if dev := math.Abs(load-L) / L; dev > out.MaxDeviation {
			out.MaxDeviation = dev
		}
	}
	return out, nil
}

// buildLBModel assembles the relaxed §4.3 LP as a mutable model in the
// block layout documented on lbAdapter. Per shard: mS serving fractions then
// mS placement indicators (variables), mS linking rows then the coverage
// row; shared per-server band and memory rows trail.
func buildLBModel(members []lb.Shard, placement [][]bool, servers []lb.Server, tolFrac float64) *lp.Model {
	n, mS := len(members), len(servers)
	total := 0.0
	for _, s := range members {
		total += s.Load
	}
	L := total / float64(mS)
	eps := tolFrac * L

	m := lp.NewModel(lp.Minimize)
	for i, s := range members {
		m.AddVariables(mS, 0, 0, 1) // serving fractions a_{i,*}
		for j := 0; j < mS; j++ {   // placement indicators m_{i,*}
			cost := s.Mem
			if placement[i][j] {
				cost = 0
			}
			m.AddVariable(cost, 0, 1, "")
		}
	}
	aVar := func(i, j int) int { return i*2*mS + j }
	mVar := func(i, j int) int { return i*2*mS + mS + j }

	for i := range members {
		for j := 0; j < mS; j++ {
			m.AddConstraint([]int{aVar(i, j), mVar(i, j)}, []float64{1, -1}, lp.LE, 0, "link")
		}
		idxs := make([]int, mS)
		ones := make([]float64, mS)
		for j := 0; j < mS; j++ {
			idxs[j] = aVar(i, j)
			ones[j] = 1
		}
		m.AddConstraint(idxs, ones, lp.EQ, 1, "cover")
	}
	for j := 0; j < mS; j++ {
		idxs := make([]int, n)
		loads := make([]float64, n)
		midx := make([]int, n)
		mems := make([]float64, n)
		for i, s := range members {
			idxs[i] = aVar(i, j)
			loads[i] = s.Load
			midx[i] = mVar(i, j)
			mems[i] = s.Mem
		}
		m.AddConstraint(idxs, loads, lp.LE, L+eps, "loadhi")
		m.AddConstraint(idxs, loads, lp.GE, L-eps, "loadlo")
		m.AddConstraint(midx, mems, lp.LE, servers[j].MemCap, "mem")
	}
	return m
}
