package online

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pop/internal/cluster"
	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/obs"
)

// Options configure an incremental engine.
type Options struct {
	// K is the number of POP sub-problems; required ≥ 1.
	K int
	// Obs, when non-nil, receives engine telemetry: an "online.round" span
	// per solve round, per-sub-problem "online.subsolve" spans (with
	// rebuild/extract phase children) on trace lanes
	// TID+1+p, and round-level counters/histograms. The observer is also
	// threaded into each sub-problem's LP solve. Nil — the default — costs
	// one pointer check per round.
	Obs *obs.Observer
	// Parallel re-solves dirty sub-problems concurrently (the map step).
	Parallel bool
	// Rebalance moves at most one client per round from the most- to the
	// least-loaded sub-problem when that strictly narrows the load spread,
	// bounding partition drift under churn while keeping reassignment
	// minimal. Both moved-between sub-problems re-solve that round.
	Rebalance bool
}

// Stats counts the engine's work since creation. The JSON tags fix the
// wire names popserver's /v1/stats exposes, so adding a field here extends
// the snapshot instead of silently dropping from it.
type Stats struct {
	// Rounds is the number of Solve calls.
	Rounds int `json:"rounds"`
	// SubSolves counts dirty sub-problems actually re-solved.
	SubSolves int `json:"sub_solves"`
	// SkippedClean counts sub-problems a round left untouched.
	SkippedClean int `json:"skipped_clean"`
	// WarmAttempts counts sub-solves entered with a live basis in the
	// sub-problem's persistent model; WarmHits counts those where the
	// solver accepted it (Solution.WarmStarted).
	WarmAttempts int `json:"warm_attempts"`
	WarmHits     int `json:"warm_hits"`
	// Iterations is the total simplex pivots across all sub-solves;
	// DualPivots is the subset taken by the dual simplex phase on
	// rhs/bound-only deltas.
	Iterations int `json:"iterations"`
	DualPivots int `json:"dual_pivots"`
	// BuildNs is time spent building sub-problem LP models; SolveNs is time
	// spent inside the LP solver. Their ratio is the constant-factor story:
	// the in-place rebuild exists to shrink BuildNs.
	BuildNs int64 `json:"build_ns"`
	SolveNs int64 `json:"solve_ns"`
	// Arrivals, Departures, and Updates count the applied deltas (an update
	// is an Upsert that changed a held job, counted each time it applies);
	// Rebalances counts clients moved by the drift-bounding rebalancer.
	Arrivals   int `json:"arrivals"`
	Departures int `json:"departures"`
	Updates    int `json:"updates"`
	Rebalances int `json:"rebalances"`
}

// ClusterEngine incrementally maintains a POP allocation for the GPU
// scheduling policies: jobs arrive, depart, and change; the engine keeps one
// persistent LP model per sub-cluster, rebuilds only the dirtied models in
// place, and re-solves them — through the dual simplex when only capacities
// moved, warm-started otherwise. The SpaceSharing policy runs the
// pair-variable LP online: each partition's model holds a slot block per
// solo job plus one per single-GPU job pair, rebuilt as membership churns.
// Not safe for concurrent use.
type ClusterEngine struct {
	opts   Options
	policy ClusterPolicy
	ad     adapter
	c      cluster.Cluster
	sub    cluster.Cluster // c.Split(K)
	haveC  bool
	jobs   cluster.Table
	subs   []sub
	partOf map[int]int
	stats  Stats
	// seeds holds per-sub-problem basis snapshots installed by a state
	// restore, and seedBlocks the layout each was solved on (the adapter's
	// layout of the restored partition); each is consumed by that
	// sub-problem's next model build, carried onto its layout the way a live
	// model's basis is, so a restored engine's first round attempts warm
	// starts instead of solving cold — arrivals before it included.
	seeds      []*lp.Basis
	seedBlocks [][]block
	// scratch recycles syncScratch values and members soloScratch values
	// between sub-solves: one per concurrent sub-solve, not one per
	// partition.
	scratch, members sync.Pool
}

// sub is the engine's whole state for one sub-problem: its members, their
// total load, whether a delta dirtied it, the persistent model with the
// block sequence that model currently encodes, and the last solve's result.
type sub struct {
	ids    []int // members in stable (insertion) order
	load   float64
	dirty  bool
	model  *lp.Model
	blocks []block
	// index maps each member at the last solve to its row of alloc (its
	// position in ids then). The solo adapter writes each new allocation over
	// the last one — X's rows are views of slab, EffThr is left to Allocate,
	// which has the jobs at hand. Nothing outside the engine holds these
	// arrays: Allocate copies rows out.
	index     map[int]int
	alloc     *cluster.Allocation
	objective float64
	slab      []float64 // backs alloc.X (solo adapter)
}

// syncScratch is what bringing one sub-problem's model in line with its
// layout needs and nothing keeps afterwards: the wanted layout, its index by
// key, where each current block sits in it, and the basis carried across a
// rebuild. One is taken from the engine's pool per sub-solve, so an engine
// holds as many as it solves sub-problems at once rather than one per
// sub-problem (a sub-problem's worth is about 100 bytes per client).
type syncScratch struct {
	want    []block
	wantPos map[blockKey]int
	// wantAt[i] is the position of the model's block i in want, or -1 when
	// the block leaves; filled by overlap, read by carry.
	wantAt []int32
	// at[q] is the first variable and the first row of want's block q in
	// the rebuilt model; carry fills it and the two status arrays.
	at           [][2]int
	varSt, rowSt []lp.BasisStatus
}

// NewClusterEngine creates an engine for cluster c running the given policy
// with K sub-problems.
func NewClusterEngine(c cluster.Cluster, policy ClusterPolicy, opts Options) (*ClusterEngine, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("online: K must be ≥ 1, got %d", opts.K)
	}
	e := &ClusterEngine{opts: opts, policy: policy, subs: make([]sub, opts.K), partOf: map[int]int{}}
	e.ad = soloAdapter{e}
	if policy == SpaceSharing {
		e.ad = pairAdapter{e}
	}
	e.SetCluster(c)
	return e, nil
}

// SetCluster installs a new resource pool. A capacity change dirties every
// sub-problem (each holds 1/k of every GPU type); under MinMakespan it is a
// pure rhs delta, so the re-solves ride the dual simplex.
func (e *ClusterEngine) SetCluster(c cluster.Cluster) {
	if e.haveC && slices.Equal(e.c.NumGPUs, c.NumGPUs) {
		return
	}
	e.c = c
	e.sub = c.Split(e.opts.K)
	e.haveC = true
	e.markAllDirty()
}

// Upsert adds job j (keyed by j.ID) or applies a change to it. Unchanged
// re-submissions are no-ops and dirty nothing. A new job joins the
// least-loaded sub-problem; a changed one stays where it is.
func (e *ClusterEngine) Upsert(j cluster.Job) {
	old, _ := e.jobs.Get(j.ID)
	switch e.jobs.Upsert(j) {
	case cluster.Arrived:
		e.place(j)
	case cluster.Updated:
		s := &e.subs[e.partOf[j.ID]]
		s.load += j.Scale - old.Scale
		s.dirty = true
		e.stats.Updates++
	}
}

// place puts arriving job j in the sub-problem with the least load (ties:
// fewest members, then lowest index) — the stable-partition arrival rule.
func (e *ClusterEngine) place(j cluster.Job) {
	best := 0
	for p := 1; p < len(e.subs); p++ {
		cand, cur := &e.subs[p], &e.subs[best]
		if cand.load < cur.load || (cand.load == cur.load && len(cand.ids) < len(cur.ids)) {
			best = p
		}
	}
	e.partOf[j.ID] = best
	s := &e.subs[best]
	s.ids = append(s.ids, j.ID)
	s.load += j.Scale
	s.dirty = true
	e.stats.Arrivals++
}

// Remove drops the job; survivors keep their sub-problems and order.
func (e *ClusterEngine) Remove(id int) bool {
	j, ok := e.jobs.Get(id)
	if !ok {
		return false
	}
	e.jobs.Remove(id)
	s := &e.subs[e.partOf[id]]
	s.ids = deleteID(s.ids, id)
	s.load -= j.Scale
	s.dirty = true
	delete(e.partOf, id)
	e.stats.Departures++
	return true
}

func deleteID(ids []int, id int) []int {
	for i, m := range ids {
		if m == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// member returns the live job held under id (the engine only asks for
// partition members, which the table always holds).
func (e *ClusterEngine) member(id int) cluster.Job {
	j, _ := e.jobs.Get(id)
	return j
}

// markAllDirty forces every sub-problem to re-solve next round, from the
// model it holds (a resource capacity change touches all sub-problems, which
// hold 1/k of each resource).
func (e *ClusterEngine) markAllDirty() {
	for p := range e.subs {
		e.subs[p].dirty = true
	}
}

// MarkAllDirty makes the next Solve rebuild and solve every sub-problem
// cold: it drops every model and any restore seed. It is the cold baseline
// the equivalence tests and BenchmarkOnlineRound hold warm rounds to.
func (e *ClusterEngine) MarkAllDirty() {
	for p := range e.subs {
		e.subs[p].drop()
	}
	e.seeds, e.seedBlocks = nil, nil
	e.markAllDirty()
}

// drop discards the model; the next sync rebuilds fresh.
func (s *sub) drop() {
	s.model = nil
	s.blocks = s.blocks[:0]
}

// NumJobs reports the number of jobs currently held.
func (e *ClusterEngine) NumJobs() int { return e.jobs.Len() }

// Jobs returns a copy of the live jobs in ascending-ID order.
func (e *ClusterEngine) Jobs() []cluster.Job {
	e.jobs.Commit(nil)
	return slices.Clone(e.jobs.Jobs())
}

// Cluster returns the current resource pool.
func (e *ClusterEngine) Cluster() cluster.Cluster { return e.c }

// Stats returns the engine's work counters.
func (e *ClusterEngine) Stats() Stats { return e.stats }

// Objective sums the sub-problem objectives — a checksum the equivalence
// tests compare against a cold full solve.
func (e *ClusterEngine) Objective() float64 {
	total := 0.0
	for p := range e.subs {
		total += e.subs[p].objective
	}
	return total
}

// rebalance moves at most one client from the most-loaded to the
// least-loaded sub-problem, choosing the member whose move most nearly
// levels the pair, and only when the move strictly narrows their spread.
// Repeated rounds therefore shrink the spread monotonically until it is
// below the lightest member of the heaviest sub-problem — the drift bound
// under churn. The moved client's old and new sub-problems both go dirty.
func (e *ClusterEngine) rebalance() {
	if !e.opts.Rebalance || len(e.subs) < 2 {
		return
	}
	hi, lo := 0, 0
	for p := 1; p < len(e.subs); p++ {
		if e.subs[p].load > e.subs[hi].load {
			hi = p
		}
		if e.subs[p].load < e.subs[lo].load {
			lo = p
		}
	}
	diff := e.subs[hi].load - e.subs[lo].load
	if hi == lo || diff <= 0 {
		return
	}
	best, bestW, bestScore := -1, 0.0, math.Inf(1)
	for _, id := range e.subs[hi].ids {
		w := e.member(id).Scale
		// Any 0 < w < diff strictly improves the pair's spread; prefer the
		// move that levels it best.
		if w <= 0 || w >= diff {
			continue
		}
		if score := math.Abs(diff - 2*w); score < bestScore {
			best, bestW, bestScore = id, w, score
		}
	}
	if best < 0 {
		return
	}
	src, dst := &e.subs[hi], &e.subs[lo]
	src.ids = deleteID(src.ids, best)
	dst.ids = append(dst.ids, best)
	src.load -= bestW
	dst.load += bestW
	e.partOf[best] = lo
	src.dirty, dst.dirty = true, true
	e.stats.Rebalances++
}

// subReport is what one sub-solve returns to the loop.
type subReport struct {
	warmAttempted bool
	warmStarted   bool
	iterations    int
	dualPivots    int
	buildNs       int64
	solveNs       int64
}

// Solve takes the round's rebalance move, if any, then re-solves every
// dirty sub-problem from its persistent model, leaving clean ones
// untouched. With an observer attached it wraps the solve in an
// "online.round" span and books the round-delta counters; the disabled
// path is one nil check.
func (e *ClusterEngine) Solve() error {
	e.rebalance()
	o := e.opts.Obs
	if o == nil {
		return e.solveDirty()
	}
	before := e.stats
	sp := o.Span("online.round")
	start := time.Now()
	err := e.solveDirty()
	dur := time.Since(start)
	d := e.stats
	sp.Arg("subsolves", d.SubSolves-before.SubSolves).
		Arg("skipped", d.SkippedClean-before.SkippedClean).
		Arg("pivots", d.Iterations-before.Iterations).
		End()
	o.Counter("pop_online_rounds_total", "engine solve rounds").Inc()
	o.Histogram("pop_online_round_seconds", "engine round wall time").Observe(dur.Seconds())
	o.Counter("pop_online_subsolves_total", "dirty sub-problems re-solved").Add(int64(d.SubSolves - before.SubSolves))
	o.Counter("pop_online_skipped_clean_total", "clean sub-problems skipped").Add(int64(d.SkippedClean - before.SkippedClean))
	o.Counter("pop_online_warm_attempts_total", "sub-solves entered with a live basis").Add(int64(d.WarmAttempts - before.WarmAttempts))
	o.Counter("pop_online_warm_hits_total", "sub-solves the solver warm-started").Add(int64(d.WarmHits - before.WarmHits))
	return err
}

// solveDirty re-solves every dirty sub-problem (concurrently when
// configured) and books the results. The keep-or-drop decision for each
// model's stale basis lives in lp.Model, whose hostile-refresh sampler
// prices the rebuilt coefficients against the previous duals. Clean
// sub-problems are skipped entirely — their cached results stand.
func (e *ClusterEngine) solveDirty() error {
	e.stats.Rounds++
	var dirty []int
	for p := range e.subs {
		if e.subs[p].dirty {
			dirty = append(dirty, p)
		}
	}
	e.stats.SkippedClean += len(e.subs) - len(dirty)
	if len(dirty) == 0 {
		return nil
	}
	reports := make([]subReport, len(dirty))
	err := core.ParallelMap(len(dirty), e.opts.Parallel, func(i int) error {
		p := dirty[i]
		rep, err := e.subSolve(p)
		if err != nil {
			return fmt.Errorf("online: sub-problem %d: %w", p, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return err
	}
	for i, p := range dirty {
		s := &e.subs[p]
		s.dirty = false
		e.stats.SubSolves++
		if reports[i].warmAttempted {
			e.stats.WarmAttempts++
			if reports[i].warmStarted {
				e.stats.WarmHits++
			}
		}
		e.stats.Iterations += reports[i].iterations
		e.stats.DualPivots += reports[i].dualPivots
		e.stats.BuildNs += reports[i].buildNs
		e.stats.SolveNs += reports[i].solveNs
	}
	return nil
}

// subSolve rebuilds sub-problem p's persistent model in place for the
// adapter's layout and current data, solves it, and has the adapter read
// the solution into the sub-problem's result (rebuild says where the warm
// start comes from). Whether changed coefficients left a kept basis worth
// warm repairing is not the engine's call: lp.Model prices a sample of the
// incoming coefficients against the previous solve's duals and drops a
// hostile basis itself.
func (e *ClusterEngine) subSolve(p int) (subReport, error) {
	o := e.opts.Obs
	if o == nil {
		return e.subSolveObs(nil, p)
	}
	// Each sub-problem gets its own trace lane so parallel sub-solves render
	// side by side instead of overlapping on the engine's lane.
	po := o.WithTID(o.TID + 1 + p)
	sp := po.Span("online.subsolve").Arg("part", p).Arg("members", len(e.subs[p].ids))
	rep, err := e.subSolveObs(po, p)
	sp.End()
	return rep, err
}

func (e *ClusterEngine) subSolveObs(po *obs.Observer, p int) (subReport, error) {
	s := &e.subs[p]
	if len(s.ids) == 0 {
		s.drop()
		clear(s.index)
		s.alloc, s.objective = nil, 0
		return subReport{}, nil
	}
	start := time.Now()
	sc, _ := e.scratch.Get().(*syncScratch)
	if sc == nil {
		sc = &syncScratch{wantPos: make(map[blockKey]int)}
	}
	defer e.scratch.Put(sc) // rebuilt from scratch by its next user, so safe to recycle on any exit
	sc.want = e.ad.Layout(s.ids, sc.want[:0])
	e.rebuild(po, s, p, sc)
	warmAttempted := s.model.HasBasis()
	buildNs := time.Since(start).Nanoseconds()

	start = time.Now()
	sol, err := s.model.SolveWithOptions(lp.Options{Obs: po})
	solveNs := time.Since(start).Nanoseconds()
	if err != nil {
		return subReport{}, err
	}
	if sol.Status != lp.Optimal {
		return subReport{}, fmt.Errorf("%v LP %v", e.policy, sol.Status)
	}
	esp := po.Span("online.extract")
	e.ad.Extract(s, sol)
	s.objective = sol.Objective
	s.reindex()
	esp.End()
	return subReport{
		warmAttempted: warmAttempted,
		warmStarted:   sol.WarmStarted,
		iterations:    sol.Iterations,
		dualPivots:    sol.DualPivots,
		buildNs:       buildNs,
		solveNs:       solveNs,
	}, nil
}

// reindex points index at the members' rows — both adapters read them out
// in member order — rebuilding it only when the members changed.
func (s *sub) reindex() {
	same := len(s.index) == len(s.ids)
	for i := 0; same && i < len(s.ids); i++ {
		at, ok := s.index[s.ids[i]]
		same = ok && at == i
	}
	if same {
		return
	}
	if s.index == nil {
		s.index = make(map[int]int, len(s.ids))
	}
	clear(s.index)
	for i, id := range s.ids {
		s.index[id] = i
	}
}

// rebuild rebuilds sub-problem p's model in place for the layout sc.want
// under an "online.rebuild" span, and settles where its warm start comes
// from:
//
//   - the layout is the one the model holds (a load change, a capacity
//     change): the basis lp.Model.Reset kept, which the model classifies
//     itself, so a capacity-only round rides the dual simplex;
//   - the layouts share at least half their block keys (an arrival, a
//     departure, a rebalance move): the old basis carried by block key;
//   - otherwise, or with no model yet: the restored basis if one is
//     waiting, carried from the layout it was solved on by the same rule;
//   - else a cold start.
//
// The choice cannot be left to the model: two solo layouts with equal
// member counts have one sparsity pattern, so the model alone would read a
// membership change as a value delta.
func (e *ClusterEngine) rebuild(po *obs.Observer, s *sub, p int, sc *syncScratch) {
	sp := po.Span("online.rebuild").Arg("blocks", len(sc.want))
	var old *lp.Basis
	var from []block // the layout old was solved on
	same := false
	if s.model == nil {
		s.model = lp.NewModel(lp.Maximize)
	} else {
		same = slices.Equal(s.blocks, sc.want)
		if !same && sc.overlap(s.blocks) >= 0.5 {
			old, from = s.model.Basis(), s.blocks
		}
		s.model.Reset()
	}
	if !same && old == nil && p < len(e.seeds) && e.seeds[p] != nil {
		if sc.overlap(e.seedBlocks[p]) >= 0.5 {
			old, from = e.seeds[p], e.seedBlocks[p]
		}
		e.seeds[p], e.seedBlocks[p] = nil, nil
	}
	e.ad.BuildModel(s.model, sc.want)
	switch {
	case same: // the basis Reset kept; the model classifies the rebuild
	case old != nil:
		s.model.SetBasis(sc.carry(from, old, s.model.NumVariables(), s.model.NumConstraints()))
	default:
		s.model.ForgetBasis()
	}
	s.blocks = append(s.blocks[:0], sc.want...) // want's array goes back to the scratch pool
	sp.Arg("kept", same).Arg("carried", old != nil).End()
}

// overlap is the fraction of the larger layout whose block keys the current
// layout cur and the wanted one share — the churn heuristic behind the
// carry-or-cold decision. For one-block-per-client layouts it equals the
// member overlap; pair layouts churn faster (one departure takes all its pair
// blocks along), which correctly biases them toward cold rebuilds. It leaves
// every current block's position in want in sc.wantAt for carry.
func (sc *syncScratch) overlap(cur []block) float64 {
	if len(cur) == 0 || len(sc.want) == 0 {
		return 0
	}
	clear(sc.wantPos)
	for i, b := range sc.want {
		sc.wantPos[b.Key] = i
	}
	sc.wantAt = sc.wantAt[:0]
	shared := 0
	for _, b := range cur {
		wi, ok := sc.wantPos[b.Key]
		if ok {
			shared++
		} else {
			wi = -1
		}
		sc.wantAt = append(sc.wantAt, int32(wi))
	}
	return float64(shared) / float64(max(len(cur), len(sc.want)))
}

// carry maps old, the basis of a model laid out as cur, onto the model just
// built for sc.want with nv variables and nr rows: a block both layouts hold
// with the same shape keeps its variable and slack statuses, a new or
// reshaped block enters with its variables at the lower bound and its
// slacks basic, and the trailing shared region (t, the capacity rows) keeps
// its statuses position by position. Survivors keep their relative order
// (member order and canonical pair order only append or drop), so these are
// the statuses cutting the departed blocks out of the old model and
// inserting the new ones would leave. The result's arrays are sc's;
// SetBasis copies them.
func (sc *syncScratch) carry(cur []block, old *lp.Basis, nv, nr int) *lp.Basis {
	sc.at = sc.at[:0]
	v, r := 0, 0
	for _, b := range sc.want {
		sc.at = append(sc.at, [2]int{v, r})
		v, r = v+b.Vars, r+b.Rows
	}
	sc.varSt, sc.rowSt = resize(sc.varSt, nv), resize(sc.rowSt, nr)
	vs, rs := sc.varSt, sc.rowSt
	for i := range vs[:v] {
		vs[i] = lp.BasisLower
	}
	for i := range rs[:r] {
		rs[i] = lp.BasisBasic
	}
	ov, or := 0, 0
	for i, b := range cur {
		if wi := sc.wantAt[i]; wi >= 0 && sc.want[wi] == b {
			at := sc.at[wi]
			copy(vs[at[0]:at[0]+b.Vars], old.VarStatus[ov:])
			copy(rs[at[1]:at[1]+b.Rows], old.SlackStatus[or:])
		}
		ov, or = ov+b.Vars, or+b.Rows
	}
	trailing(vs[v:], old.VarStatus[ov:], lp.BasisLower)
	trailing(rs[r:], old.SlackStatus[or:], lp.BasisBasic)
	return &lp.Basis{VarStatus: vs, SlackStatus: rs}
}

// trailing copies the shared region's statuses src into dst position by
// position; entries src does not reach (the region grew) take def.
func trailing(dst, src []lp.BasisStatus, def lp.BasisStatus) {
	for i := copy(dst, src); i < len(dst); i++ {
		dst[i] = def
	}
}

// Allocate re-solves the dirty sub-problems over the engine's own client set —
// whatever Upsert and Remove have left in it — and returns the clients in
// ascending-ID order with the allocation aligned to them (solo policies: X
// rows per job; space sharing: the composed Pairs/PairX slot list). The job
// slice aliases the engine's table and is valid until the next Upsert or
// Remove.
func (e *ClusterEngine) Allocate(c cluster.Cluster) ([]cluster.Job, *cluster.Allocation, error) {
	e.SetCluster(c)
	e.jobs.Commit(nil)
	jobs := e.jobs.Jobs()
	if err := e.Solve(); err != nil {
		return nil, nil, err
	}
	if e.policy == SpaceSharing {
		out, err := e.composePairs(jobs)
		return jobs, out, err
	}

	// One slab of copies: handing out the cached rows would let a caller's
	// in-place edits corrupt the allocation served on later clean rounds.
	r := e.sub.NumTypes()
	slab := make([]float64, len(jobs)*r)
	out := &cluster.Allocation{
		X:      make([][]float64, len(jobs)),
		EffThr: make([]float64, len(jobs)),
	}
	counted := make([]bool, len(e.subs))
	for pos, j := range jobs {
		s, i, p, err := e.rowOf(j.ID)
		if err != nil {
			return nil, nil, err
		}
		out.X[pos] = slab[pos*r : (pos+1)*r : (pos+1)*r]
		copy(out.X[pos], s.alloc.X[i])
		out.EffThr[pos] = cluster.EffectiveThroughput(j, out.X[pos])
		if !counted[p] {
			counted[p] = true
			out.LPVariables += s.alloc.LPVariables
		}
	}
	return jobs, out, nil
}

// Step is Allocate for callers that hold the population themselves (round
// loops like gavelsim's): it diffs the active set into the engine, runs the
// round, and returns the allocation in active-set order. It has
// gavelsim.Policy's signature.
func (e *ClusterEngine) Step(active []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
	ordered := e.jobs.Reconcile(active, e.Upsert, e.Remove)
	jobs, alloc, err := e.Allocate(c)
	if err != nil || ordered {
		return alloc, err
	}
	return alloc.InOrder(jobs, active), nil
}

// rowOf locates job id's sub-problem, its row in that sub-problem's last
// result, and the sub-problem's index.
func (e *ClusterEngine) rowOf(id int) (*sub, int, int, error) {
	p, ok := e.partOf[id]
	if !ok {
		return nil, 0, 0, fmt.Errorf("online: job %d has no sub-problem", id)
	}
	s := &e.subs[p]
	i, ok := s.index[id]
	if !ok {
		return nil, 0, 0, fmt.Errorf("online: job %d missing from sub-problem %d result", id, p)
	}
	return s, i, p, nil
}

// composePairs concatenates the per-partition pair allocations onto the
// active set (POP's reduce step for the space-sharing policy).
func (e *ClusterEngine) composePairs(active []cluster.Job) (*cluster.Allocation, error) {
	out := &cluster.Allocation{EffThr: make([]float64, len(active))}
	counted := make([]bool, len(e.subs))
	for pos, j := range active {
		s, i, p, err := e.rowOf(j.ID)
		if err != nil {
			return nil, err
		}
		out.EffThr[pos] = s.alloc.EffThr[i]
		if !counted[p] {
			counted[p] = true
			out.LPVariables += s.alloc.LPVariables
			for q := range s.alloc.Pairs {
				out.Pairs = append(out.Pairs, s.alloc.Pairs[q])
				out.PairX = append(out.PairX, append([]float64(nil), s.alloc.PairX[q]...))
			}
		}
	}
	return out, nil
}
