package online

import (
	"fmt"
	"math"
	"sync"
	"time"

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
	// rebuild/splice/refresh/extract phase children) on trace lanes
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
	// BuildNs is time spent constructing or mutating sub-problem LP models;
	// SolveNs is time spent inside the LP solver. Their ratio is the
	// constant-factor story: the mutation path exists to shrink BuildNs.
	BuildNs int64 `json:"build_ns"`
	SolveNs int64 `json:"solve_ns"`
	// Arrivals, Departures, and Updates count the applied deltas;
	// Rebalances counts clients moved by the drift-bounding rebalancer.
	Arrivals   int `json:"arrivals"`
	Departures int `json:"departures"`
	Updates    int `json:"updates"`
	Rebalances int `json:"rebalances"`
}

// sub is the engine's whole state for one sub-problem: its members, their
// total load, whether a delta dirtied it, and the persistent model with the
// block sequence that model currently encodes.
type sub struct {
	ids   []int // members in stable (insertion) order
	load  float64
	dirty bool
	// touched collects the members whose data changed since the last solve,
	// deduplicating the Stats.Updates count per round.
	touched map[int]struct{}
	model   *lp.Model
	blocks  []Block
}

// syncScratch is what bringing one sub-problem's model in line with its
// layout needs and nothing keeps afterwards: the wanted layout, its index by
// key, and where each current block sits in it. One is taken from the
// engine's pool per sub-solve, so an engine holds as many as it solves
// sub-problems at once rather than one per sub-problem (a sub-problem's
// worth is about 100 bytes per client).
type syncScratch struct {
	want    []Block
	wantPos map[BlockKey]int
	// wantAt[i] is the position of the model's block i in want, or -1 once
	// the block is known to leave; filled by overlap, read by splice.
	wantAt []int32
}

// engine is the domain-independent online engine: stable partitions of the
// clients into K sub-problems, dirty marking, drift-bounded rebalancing, and
// the dirty-only solve loop over one persistent model per sub-problem, kept
// in sync with the adapter's declared layout. ClusterEngine wraps it with
// its delta API.
type engine struct {
	opts   Options
	ad     Adapter
	lpOpts lp.Options
	subs   []sub
	partOf map[int]int
	loadOf map[int]float64
	stats  Stats
	// seeds holds per-sub-problem basis snapshots installed by a state
	// restore; each is consumed by that sub-problem's next model build, so a
	// restored engine's first round attempts warm starts instead of solving
	// cold. A seed whose dimensions no longer fit is dropped by the solver.
	seeds []*lp.Basis
	// scratch recycles syncScratch values between sub-solves.
	scratch sync.Pool
}

func newEngine(ad Adapter, opts Options, lpOpts lp.Options) (*engine, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("online: K must be ≥ 1, got %d", opts.K)
	}
	e := &engine{opts: opts, ad: ad, lpOpts: lpOpts}
	e.reset()
	return e, nil
}

// reset empties the engine: no members, no models, no basis seeds. The
// counters survive.
func (e *engine) reset() {
	e.subs = make([]sub, e.opts.K)
	e.partOf = make(map[int]int)
	e.loadOf = make(map[int]float64)
	e.seeds = nil
}

// upsert places (or keeps) client id with partitioning weight load and
// returns its sub-problem. New clients go to the least-loaded sub-problem —
// the stable-partition arrival rule.
func (e *engine) upsert(id int, load float64) int {
	if p, ok := e.partOf[id]; ok {
		e.subs[p].load += load - e.loadOf[id]
		e.loadOf[id] = load
		return p
	}
	best := 0
	for p := 1; p < len(e.subs); p++ {
		cand, cur := &e.subs[p], &e.subs[best]
		if cand.load < cur.load || (cand.load == cur.load && len(cand.ids) < len(cur.ids)) {
			best = p
		}
	}
	e.partOf[id] = best
	e.loadOf[id] = load
	s := &e.subs[best]
	s.ids = append(s.ids, id)
	s.load += load
	s.markTouched(id)
	e.stats.Arrivals++
	return best
}

// remove drops client id; survivors keep their sub-problems and order.
func (e *engine) remove(id int) bool {
	p, ok := e.partOf[id]
	if !ok {
		return false
	}
	s := &e.subs[p]
	s.ids = deleteID(s.ids, id)
	s.load -= e.loadOf[id]
	s.dirty = true
	delete(s.touched, id) // departed blocks drop from the model
	delete(e.partOf, id)
	delete(e.loadOf, id)
	e.stats.Departures++
	return true
}

// touch marks client id's sub-problem dirty (its data changed).
func (e *engine) touch(id int) {
	if p, ok := e.partOf[id]; ok {
		s := &e.subs[p]
		if _, seen := s.touched[id]; !seen {
			e.stats.Updates++
		}
		s.markTouched(id)
	}
}

func (s *sub) markTouched(id int) {
	if s.touched == nil {
		s.touched = make(map[int]struct{})
	}
	s.touched[id] = struct{}{}
	s.dirty = true
}

func deleteID(ids []int, id int) []int {
	for i, m := range ids {
		if m == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// markAllDirty forces every sub-problem to re-solve next round, from the
// model it holds (a resource capacity change touches all sub-problems, which
// hold 1/k of each resource).
func (e *engine) markAllDirty() {
	for p := range e.subs {
		e.subs[p].dirty = true
	}
}

// markAllCold is markAllDirty with every model and restore seed dropped, so
// the next round rebuilds and solves each sub-problem cold.
func (e *engine) markAllCold() {
	for p := range e.subs {
		e.subs[p].drop()
	}
	e.seeds = nil
	e.markAllDirty()
}

// drop discards the model; the next sync rebuilds fresh.
func (s *sub) drop() {
	s.model = nil
	s.blocks = s.blocks[:0]
}

// rebalance moves at most one client from the most-loaded to the
// least-loaded sub-problem, choosing the member whose move most nearly
// levels the pair, and only when the move strictly narrows their spread.
// Repeated rounds therefore shrink the spread monotonically until it is
// below the lightest member of the heaviest sub-problem — the drift bound
// under churn. The moved client's old and new sub-problems both go dirty.
func (e *engine) rebalance() {
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
	best, bestScore := -1, math.Inf(1)
	for _, id := range e.subs[hi].ids {
		w := e.loadOf[id]
		// Any 0 < w < diff strictly improves the pair's spread; prefer the
		// move that levels it best.
		if w <= 0 || w >= diff {
			continue
		}
		if score := math.Abs(diff - 2*w); score < bestScore {
			best, bestScore = id, score
		}
	}
	if best < 0 {
		return
	}
	src, dst := &e.subs[hi], &e.subs[lo]
	src.ids = deleteID(src.ids, best)
	dst.ids = append(dst.ids, best)
	w := e.loadOf[best]
	src.load -= w
	dst.load += w
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

// solveRound takes the round's rebalance move, if any, then re-solves every
// dirty sub-problem through the adapter. With an observer attached it wraps
// the solve in an "online.round" span and books the round-delta counters;
// the disabled path is one nil check.
func (e *engine) solveRound() error {
	e.rebalance()
	o := e.opts.Obs
	if o == nil {
		return e.solveDirty(e.subSolve)
	}
	before := e.stats
	sp := o.Span("online.round")
	start := time.Now()
	err := e.solveDirty(e.subSolve)
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

// solveDirty runs solve for every dirty sub-problem (concurrently when
// configured) and books the results. The keep-or-drop decision for each
// model's stale basis lives in lp.Model, whose hostile-refresh sampler
// prices the refreshed coefficients against the previous duals. Clean
// sub-problems are skipped entirely — their cached results stand.
func (e *engine) solveDirty(solve func(p int, ids []int) (subReport, error)) error {
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
		rep, err := solve(p, e.subs[p].ids)
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
		s.touched = nil
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

// subSolve brings sub-problem p's persistent model in line with the
// adapter's declared layout and current data, solves it, and hands the
// solution to the adapter. The sync path is chosen once per round:
//
//   - no model yet (the first round, or after MarkAllDirty), or membership
//     churned beyond recognition (block-key overlap < 0.5): build fresh;
//   - otherwise splice departed blocks out and new blocks in, then refresh
//     all data-dependent values. A splice that cannot preserve survivor
//     order or shape falls back to a fresh build.
//
// Whether the refreshed coefficients left the stale basis worth warm
// repairing is not the engine's call: lp.Model prices a sample of the
// incoming coefficients against the previous solve's duals and drops a
// hostile basis itself, uniformly across adapters.
func (e *engine) subSolve(p int, ids []int) (subReport, error) {
	o := e.opts.Obs
	if o == nil {
		return e.subSolveObs(nil, p, ids)
	}
	// Each sub-problem gets its own trace lane so parallel sub-solves render
	// side by side instead of overlapping on the engine's lane.
	po := o.WithTID(o.TID + 1 + p)
	sp := po.Span("online.subsolve").Arg("part", p).Arg("members", len(ids))
	rep, err := e.subSolveObs(po, p, ids)
	sp.End()
	return rep, err
}

func (e *engine) subSolveObs(po *obs.Observer, p int, ids []int) (subReport, error) {
	s := &e.subs[p]
	if len(ids) == 0 {
		s.drop()
		e.ad.Clear(p)
		return subReport{}, nil
	}
	start := time.Now()
	sc, _ := e.scratch.Get().(*syncScratch)
	if sc == nil {
		sc = &syncScratch{wantPos: make(map[BlockKey]int)}
	}
	defer e.scratch.Put(sc) // rebuilt from scratch by its next user, so safe to recycle on any exit
	sc.want = e.ad.Layout(p, ids, sc.want[:0])
	if s.model == nil || sc.overlap(s.blocks) < 0.5 || !e.spliceObs(po, s, p, sc) {
		e.rebuildObs(po, s, p, sc.want)
	} else {
		rsp := po.Span("online.refresh")
		e.ad.RefreshModel(s.model, p, s.blocks)
		rsp.End()
	}
	warmAttempted := s.model.HasBasis()
	buildNs := time.Since(start).Nanoseconds()

	lpo := e.lpOpts
	if po != nil {
		lpo.Obs = po
	}
	start = time.Now()
	sol, err := s.model.SolveWithOptions(lpo)
	solveNs := time.Since(start).Nanoseconds()
	if err != nil {
		return subReport{}, err
	}
	esp := po.Span("online.extract")
	err = e.ad.Extract(p, s.blocks, sol, s.model.NumVariables())
	esp.End()
	if err != nil {
		return subReport{}, err
	}
	return subReport{
		warmAttempted: warmAttempted,
		warmStarted:   sol.WarmStarted,
		iterations:    sol.Iterations,
		dualPivots:    sol.DualPivots,
		buildNs:       buildNs,
		solveNs:       solveNs,
	}, nil
}

// rebuildObs builds sub-problem p's model fresh for layout want, seeding it
// with the restored basis if one is waiting; spliceObs wraps splice. Each
// opens its phase span.
func (e *engine) rebuildObs(po *obs.Observer, s *sub, p int, want []Block) {
	sp := po.Span("online.rebuild").Arg("blocks", len(want))
	s.model = e.ad.BuildModel(p, want)
	s.blocks = append(s.blocks[:0], want...) // want's array goes back to the scratch pool
	if p < len(e.seeds) && e.seeds[p] != nil {
		s.model.SetBasis(e.seeds[p])
		e.seeds[p] = nil
	}
	sp.End()
}

func (e *engine) spliceObs(po *obs.Observer, s *sub, p int, sc *syncScratch) bool {
	sp := po.Span("online.splice")
	ok := e.splice(s, p, sc)
	sp.Arg("ok", ok).End()
	return ok
}

// splice mutates s.model toward the layout sc.want, which sc.overlap has
// just matched against s.blocks: blocks that vanished or whose shape changed
// are removed back-to-front, missing blocks are inserted at their layout
// positions, and surviving blocks keep their variables, rows, and basis
// statuses. It reports false — the caller rebuilds — when the survivors'
// relative order differs from want's.
func (e *engine) splice(s *sub, p int, sc *syncScratch) bool {
	want, wantAt := sc.want, sc.wantAt
	// Classify survivors (must match the wanted block exactly) and verify
	// their relative order before touching the model, so a doomed splice
	// never half-mutates it.
	last := -1
	varEnd, rowEnd := 0, 0
	for i, b := range s.blocks {
		varEnd += b.Vars
		rowEnd += b.Rows
		wi := int(wantAt[i])
		if wi < 0 || want[wi] != b {
			wantAt[i] = -1 // vanished or reshaped: remove + resplice
			continue
		}
		if wi <= last {
			return false
		}
		last = wi
	}
	// Remove non-survivors back-to-front so earlier offsets stay valid, a run
	// of adjacent ones in one cut (each cut walks the whole matrix).
	for bi := len(s.blocks) - 1; bi >= 0; bi-- {
		vars, rows := 0, 0
		for ; bi >= 0 && wantAt[bi] < 0; bi-- {
			vars += s.blocks[bi].Vars
			rows += s.blocks[bi].Rows
		}
		varEnd -= vars
		rowEnd -= rows
		s.model.RemoveConstraints(rowEnd, rows)
		s.model.RemoveVariables(varEnd, vars)
		if bi >= 0 {
			varEnd -= s.blocks[bi].Vars
			rowEnd -= s.blocks[bi].Rows
		}
	}
	kept := s.blocks[:0]
	for i, b := range s.blocks {
		if wantAt[i] >= 0 {
			kept = append(kept, b)
		}
	}
	// Walk want, inserting the blocks the survivors do not cover; the model
	// then holds exactly want.
	varAt, rowAt, ci := 0, 0, 0
	for _, b := range want {
		if ci < len(kept) && kept[ci].Key == b.Key {
			ci++
		} else {
			e.ad.SpliceBlock(s.model, p, b, varAt, rowAt)
		}
		varAt += b.Vars
		rowAt += b.Rows
	}
	s.blocks = append(kept[:0], want...)
	return true
}

// overlap is the fraction of the larger layout whose block keys the current
// layout cur and the wanted one share — the churn heuristic behind the
// rebuild-vs-splice decision. For one-block-per-client layouts it equals the
// member overlap; pair layouts churn faster (one departure takes all its pair
// blocks along), which correctly biases them toward rebuilding. It leaves
// every current block's position in want in sc.wantAt for splice.
func (sc *syncScratch) overlap(cur []Block) float64 {
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
