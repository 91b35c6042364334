package online

import (
	"fmt"
	"slices"
	"sync"

	"pop/internal/cluster"
	"pop/internal/lp"
)

// ClusterPolicy selects the scheduling policy a ClusterEngine runs in each
// sub-problem.
type ClusterPolicy int8

const (
	// MaxMinFairness is the §4.1 heterogeneity-aware least-attained-service
	// policy (no space sharing).
	MaxMinFairness ClusterPolicy = iota
	// MinMakespan is the §4.1 makespan-minimizing policy.
	MinMakespan
	// SpaceSharing is max-min fairness with space sharing (§4.1, Fig 6):
	// allocation slots exist for every pair of single-GPU jobs, so two jobs
	// can time-share one GPU with interference-reduced throughputs. Pairs
	// only form within a sub-problem (the paper's §5.3 cubic reduction).
	SpaceSharing
)

func (p ClusterPolicy) String() string {
	switch p {
	case MaxMinFairness:
		return "max-min-fairness"
	case MinMakespan:
		return "min-makespan"
	case SpaceSharing:
		return "space-sharing"
	}
	return fmt.Sprintf("ClusterPolicy(%d)", int8(p))
}

// clusterSubResult caches one sub-problem's last allocation. The solo
// adapter writes each new allocation over the last one — X's rows are views
// of slab, EffThr is left to ClusterEngine.Allocate, which has the jobs at
// hand. Nothing outside the engine holds these arrays: Allocate copies rows
// out.
type clusterSubResult struct {
	ids       []int
	index     map[int]int // id -> position in ids
	alloc     *cluster.Allocation
	objective float64
	slab      []float64 // backs alloc.X (solo adapter)
}

// soloScratch is the working memory of one soloAdapter.RefreshModel call:
// the members behind the layout — one table lookup each per sub-solve — and
// the bulk setter's arguments.
type soloScratch struct {
	members []cluster.Job
	coefs   []float64
	idxs    []int
	scales  []float64
}

// clusterState is the domain state shared by the cluster adapters: the
// resource pool, the live jobs, and the per-partition results. (The
// equal-share fingerprints that used to live here — detecting when a total
// scale or capacity shift rotated every fairness denominator at once — are
// gone: lp.Model now prices the refreshed coefficients against its previous
// duals and drops a hostile basis itself.)
type clusterState struct {
	policy  ClusterPolicy
	c       cluster.Cluster
	sub     cluster.Cluster // c.Split(K)
	haveC   bool
	jobs    cluster.Table
	results []*clusterSubResult
	// refresh recycles soloScratch values: one per concurrent sub-solve, not
	// one per partition.
	refresh sync.Pool
}

// member returns the live job held under id (the adapters only ask for
// partition members, which the table always holds).
func (st *clusterState) member(id int) cluster.Job {
	j, _ := st.jobs.Get(id)
	return j
}

// soloIDs extracts the member ids from a layout's single-owner blocks, in
// block order — the member list both cluster adapters key their rows by.
func soloIDs(layout []Block) []int {
	ids := make([]int, 0, len(layout))
	for _, b := range layout {
		if b.Key.B == NoPartner {
			ids = append(ids, b.Key.A)
		}
	}
	return ids
}

func (st *clusterState) soloMembers(layout []Block) []cluster.Job {
	members := make([]cluster.Job, 0, len(layout))
	for _, b := range layout {
		if b.Key.B == NoPartner {
			members = append(members, st.member(b.Key.A))
		}
	}
	return members
}

// result returns partition p's result record, creating it empty.
func (st *clusterState) result(p int) *clusterSubResult {
	if st.results[p] == nil {
		st.results[p] = &clusterSubResult{index: map[int]int{}}
	}
	return st.results[p]
}

// clear empties partition p's result and keeps its arrays.
func (st *clusterState) clear(p int) {
	res := st.result(p)
	res.ids = res.ids[:0]
	clear(res.index)
	res.alloc = nil
	res.objective = 0
}

// resize returns s with length n, on a new array of exactly that size when
// s is too small. The entries are whatever s held; callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ClusterEngine incrementally maintains a POP allocation for the GPU
// scheduling policies: jobs arrive, depart, and change; the engine keeps one
// mutable LP model per sub-cluster, applies deltas in place, and re-solves
// only the dirtied models — through the dual simplex when only capacities
// moved, warm-started otherwise. The SpaceSharing policy runs the
// pair-variable LP online: each partition's model holds a slot block per
// solo job plus one per single-GPU job pair, spliced as membership churns.
// Not safe for concurrent use.
type ClusterEngine struct {
	st  *clusterState
	eng *engine
}

// NewClusterEngine creates an engine for cluster c running the given policy
// with K sub-problems.
func NewClusterEngine(c cluster.Cluster, policy ClusterPolicy, opts Options, lpOpts lp.Options) (*ClusterEngine, error) {
	st := &clusterState{policy: policy}
	var ad Adapter = &soloAdapter{st}
	if policy == SpaceSharing {
		ad = &pairAdapter{st}
	}
	eng, err := newEngine(ad, opts, lpOpts)
	if err != nil {
		return nil, err
	}
	st.results = make([]*clusterSubResult, opts.K)
	e := &ClusterEngine{st: st, eng: eng}
	e.SetCluster(c)
	return e, nil
}

// SetCluster installs a new resource pool. A capacity change dirties every
// sub-problem (each holds 1/k of every GPU type); under MinMakespan it is a
// pure rhs delta, so the re-solves ride the dual simplex.
func (e *ClusterEngine) SetCluster(c cluster.Cluster) {
	if e.st.haveC && clustersEqual(e.st.c, c) {
		return
	}
	e.st.c = c
	e.st.sub = c.Split(e.eng.opts.K)
	e.st.haveC = true
	e.eng.markAllDirty()
}

func clustersEqual(a, b cluster.Cluster) bool {
	if len(a.NumGPUs) != len(b.NumGPUs) {
		return false
	}
	for i := range a.NumGPUs {
		if a.NumGPUs[i] != b.NumGPUs[i] {
			return false
		}
	}
	return true
}

// Upsert adds job j (keyed by j.ID) or applies a change to it. Unchanged
// re-submissions are no-ops and dirty nothing.
func (e *ClusterEngine) Upsert(j cluster.Job) {
	switch e.st.jobs.Upsert(j) {
	case cluster.Arrived:
		e.eng.upsert(j.ID, j.Scale)
	case cluster.Updated:
		e.eng.upsert(j.ID, j.Scale)
		e.eng.touch(j.ID)
	}
}

// Remove drops the job; survivors keep their sub-problems.
func (e *ClusterEngine) Remove(id int) bool {
	return e.st.jobs.Remove(id) && e.eng.remove(id)
}

// MarkAllDirty makes the next Solve rebuild and solve every sub-problem
// cold: it drops every model and any restore seed. It is the cold baseline
// the equivalence tests and BenchmarkOnlineRound hold warm rounds to.
func (e *ClusterEngine) MarkAllDirty() { e.eng.markAllCold() }

// NumJobs reports the number of jobs currently held.
func (e *ClusterEngine) NumJobs() int { return e.st.jobs.Len() }

// Jobs returns a copy of the live jobs in ascending-ID order.
func (e *ClusterEngine) Jobs() []cluster.Job {
	e.st.jobs.Commit(nil)
	return slices.Clone(e.st.jobs.Jobs())
}

// Cluster returns the current resource pool.
func (e *ClusterEngine) Cluster() cluster.Cluster { return e.st.c }

// Stats returns the engine's work counters.
func (e *ClusterEngine) Stats() Stats { return e.eng.stats }

// Solve re-solves every dirty sub-problem from its persistent model,
// leaving clean ones untouched.
func (e *ClusterEngine) Solve() error { return e.eng.solveRound() }

// Objective sums the sub-problem objectives — a checksum the equivalence
// tests compare against a cold full solve.
func (e *ClusterEngine) Objective() float64 {
	total := 0.0
	for _, r := range e.st.results {
		if r != nil {
			total += r.objective
		}
	}
	return total
}

// Allocate re-solves the dirty sub-problems over the engine's own client set —
// whatever Upsert and Remove have left in it — and returns the clients in
// ascending-ID order with the allocation aligned to them (solo policies: X
// rows per job; space sharing: the composed Pairs/PairX slot list). The job
// slice aliases the engine's table and is valid until the next Upsert or
// Remove.
func (e *ClusterEngine) Allocate(c cluster.Cluster) ([]cluster.Job, *cluster.Allocation, error) {
	e.SetCluster(c)
	e.st.jobs.Commit(nil)
	jobs := e.st.jobs.Jobs()
	if err := e.Solve(); err != nil {
		return nil, nil, err
	}
	if e.st.policy == SpaceSharing {
		out, err := e.composePairs(jobs)
		return jobs, out, err
	}

	// One slab of copies: handing out the cached rows would let a caller's
	// in-place edits corrupt the allocation served on later clean rounds.
	r := e.st.sub.NumTypes()
	slab := make([]float64, len(jobs)*r)
	out := &cluster.Allocation{
		X:      make([][]float64, len(jobs)),
		EffThr: make([]float64, len(jobs)),
	}
	counted := make([]bool, len(e.st.results))
	for pos, j := range jobs {
		res, i, p, err := e.resultOf(j.ID)
		if err != nil {
			return nil, nil, err
		}
		out.X[pos] = slab[pos*r : (pos+1)*r : (pos+1)*r]
		copy(out.X[pos], res.alloc.X[i])
		out.EffThr[pos] = cluster.EffectiveThroughput(j, out.X[pos])
		if !counted[p] {
			counted[p] = true
			out.LPVariables += res.alloc.LPVariables
		}
	}
	return jobs, out, nil
}

// Step is Allocate for callers that hold the population themselves (round
// loops like gavelsim's): it diffs the active set into the engine, runs the
// round, and returns the allocation in active-set order.
func (e *ClusterEngine) Step(active []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
	ordered := e.st.jobs.Reconcile(active, e.Upsert, e.Remove)
	jobs, alloc, err := e.Allocate(c)
	if err != nil || ordered {
		return alloc, err
	}
	return alloc.InOrder(jobs, active), nil
}

// resultOf locates job id's cached sub-problem result and its local index.
func (e *ClusterEngine) resultOf(id int) (*clusterSubResult, int, int, error) {
	p, ok := e.eng.partOf[id]
	if !ok || e.st.results[p] == nil {
		return nil, 0, 0, fmt.Errorf("online: job %d has no sub-problem result", id)
	}
	res := e.st.results[p]
	i, ok := res.index[id]
	if !ok {
		return nil, 0, 0, fmt.Errorf("online: job %d missing from sub-problem %d result", id, p)
	}
	return res, i, p, nil
}

// composePairs concatenates the per-partition pair allocations onto the
// active set (POP's reduce step for the space-sharing policy).
func (e *ClusterEngine) composePairs(active []cluster.Job) (*cluster.Allocation, error) {
	out := &cluster.Allocation{EffThr: make([]float64, len(active))}
	counted := make([]bool, len(e.st.results))
	for pos, j := range active {
		res, i, p, err := e.resultOf(j.ID)
		if err != nil {
			return nil, err
		}
		out.EffThr[pos] = res.alloc.EffThr[i]
		if !counted[p] {
			counted[p] = true
			out.LPVariables += res.alloc.LPVariables
			for q := range res.alloc.Pairs {
				out.Pairs = append(out.Pairs, res.alloc.Pairs[q])
				out.PairX = append(out.PairX, append([]float64(nil), res.alloc.PairX[q]...))
			}
		}
	}
	return out, nil
}

// Policy adapts the engine to gavelsim's round loop: each call diffs the
// active set against engine state and re-solves incrementally. The returned
// function has gavelsim.Policy's signature.
func (e *ClusterEngine) Policy() func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
	return func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
		return e.Step(jobs, c)
	}
}

// soloAdapter is the Adapter for the solo policies (MaxMinFairness,
// MinMakespan): one block per job, in cluster.SoloModel's layout — block i
// holds the member's r allocation-fraction variables, its time row and its
// rate row; the shared epigraph t trails the block variables and the r
// shared capacity rows trail the block rows.
type soloAdapter struct {
	*clusterState
}

func (ad *soloAdapter) Layout(p int, ids []int, layout []Block) []Block {
	r := ad.sub.NumTypes()
	for _, id := range ids {
		layout = append(layout, Block{Key: BlockKey{id, NoPartner}, Vars: r, Rows: 2})
	}
	return layout
}

func (ad *soloAdapter) BuildModel(p int, layout []Block) *lp.Model {
	members := ad.soloMembers(layout)
	return cluster.SoloModel(members, ad.sub, ad.denominator(members))
}

// denominator returns the solo policy's rate-row denominator over members.
func (ad *soloAdapter) denominator(members []cluster.Job) func(cluster.Job) float64 {
	if ad.policy == MinMakespan {
		return cluster.MakespanDenominator
	}
	return cluster.MaxMinDenominator(members, ad.sub)
}

// SpliceBlock inserts a member block (r variables, a time row, and a
// structurally-complete rate row). Coefficient values — including the
// member's column in the shared capacity rows — are left to RefreshModel,
// which runs on every splice pass.
func (ad *soloAdapter) SpliceBlock(m *lp.Model, p int, b Block, varAt, rowAt int) {
	r := ad.sub.NumTypes()
	m.InsertVariables(varAt, r, 0, 0, 1)
	vars := make([]int, r)
	ones := make([]float64, r)
	zeros := make([]float64, r+1)
	for k := 0; k < r; k++ {
		vars[k] = varAt + k
		ones[k] = 1
	}
	m.InsertConstraint(rowAt, vars, ones, lp.LE, 1, "time")
	tv := m.NumVariables() - 1 // the shared epigraph stays the last variable
	m.InsertConstraint(rowAt+1, append(append([]int(nil), vars...), tv), zeros, lp.GE, 0, "rate")
}

// RefreshModel rewrites every data-dependent value against the current
// members and capacities: each member's own rate row entry by entry,
// the shared capacity rows through the bulk setter (one pass per row, not
// per member).
func (ad *soloAdapter) RefreshModel(m *lp.Model, p int, layout []Block) {
	sc, _ := ad.refresh.Get().(*soloScratch)
	if sc == nil {
		sc = new(soloScratch)
	}
	defer ad.refresh.Put(sc)
	members := sc.members[:0]
	for _, b := range layout {
		members = append(members, ad.member(b.Key.A))
	}
	sc.members = members
	n := len(members)
	r := ad.sub.NumTypes()
	tv := n * r
	denom := ad.denominator(members)
	coefs := resize(sc.coefs, r)
	sc.coefs = coefs
	for i, j := range members {
		tc := cluster.RateRow(j.Throughput, denom(j), coefs)
		row := 2*i + 1
		for k := 0; k < r; k++ {
			m.SetCoeff(row, i*r+k, coefs[k])
		}
		m.SetCoeff(row, tv, tc)
	}
	sc.idxs, sc.scales = resize(sc.idxs, n), resize(sc.scales, n)
	for i, j := range members {
		sc.scales[i] = j.Scale
	}
	for k := 0; k < r; k++ {
		for i := range sc.idxs {
			sc.idxs[i] = i*r + k
		}
		m.SetCoeffs(2*n+k, sc.idxs, sc.scales)
		m.SetRHS(2*n+k, ad.sub.NumGPUs[k])
	}
}

// Extract copies the solution's block variables over the partition's previous
// rows and re-indexes the members only when they changed.
func (ad *soloAdapter) Extract(p int, layout []Block, sol *lp.Solution, nVars int) error {
	if sol.Status != lp.Optimal {
		return fmt.Errorf("%v LP %v", ad.policy, sol.Status)
	}
	res := ad.result(p)
	n, r := len(layout), ad.sub.NumTypes()
	same := len(res.ids) == n
	for i := 0; same && i < n; i++ {
		same = res.ids[i] == layout[i].Key.A
	}
	if !same {
		res.ids = res.ids[:0]
		clear(res.index)
		for i, b := range layout {
			res.ids = append(res.ids, b.Key.A)
			res.index[b.Key.A] = i
		}
	}
	res.slab = resize(res.slab, n*r)
	copy(res.slab, sol.X)
	if res.alloc == nil {
		res.alloc = &cluster.Allocation{}
	}
	res.alloc.X = resize(res.alloc.X, n)
	for i := range res.alloc.X {
		res.alloc.X[i] = res.slab[i*r : (i+1)*r : (i+1)*r]
	}
	res.alloc.LPVariables = nVars
	res.objective = sol.Objective
	return nil
}

func (ad *soloAdapter) Clear(p int) { ad.clear(p) }
