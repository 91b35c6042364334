package online

import (
	"sync"
	"time"

	"pop/internal/lp"
	"pop/internal/obs"
)

// NoPartner marks a BlockKey owned by a single client.
const NoPartner = -1

// BlockKey identifies one LP block inside a sub-problem's persistent model.
// A is the owning client's tracker id; B is a second owner for blocks shared
// by two clients (the space-sharing pair slots), or NoPartner for blocks
// owned by one client alone. One client may own any number of blocks.
type BlockKey struct {
	A, B int
}

// Contains reports whether id owns (part of) the block.
func (k BlockKey) Contains(id int) bool { return k.A == id || k.B == id }

// Block is one keyed slice of a sub-problem's LP: Vars consecutive
// variables and Rows consecutive constraint rows. A partition's model lays
// its blocks out contiguously in layout order — all block variables first
// (then any shared variables), all block rows first (then any shared rows) —
// so the engine can splice whole blocks with lp.Model's structural
// operations while the stored basis carries the survivors' statuses along.
//
// Gen is an adapter-chosen content generation: a block whose Gen differs
// from the model's current one is removed and respliced even though its key
// and shape are unchanged. Adapters whose block *structure* depends on data
// RefreshModel does not rewrite (the TE adapter's path sets, which place
// static coefficients in the shared edge rows) bump it when that data
// changes; adapters whose structure is a pure function of key and shape
// leave it zero.
type Block struct {
	Key  BlockKey
	Vars int
	Rows int
	Gen  int
}

// Adapter is the problem-specific half of an online engine. The generic
// engine owns partitions, dirty tracking, the rebuild-vs-splice decision,
// solve timing, and stats; the adapter owns the LP formulation:
//
//   - Layout appends to buf (an empty slice the engine recycles between
//     sub-solves) the block sequence a partition's model must hold for its
//     current members — the block-shape contract. Layouts must be
//     deterministic in (p, ids) and keep a departing member's blocks
//     removable and an arriving member's blocks insertable without
//     reordering survivors (append-ordered enumerations have this
//     property). Shared variables and rows trail the block region and are
//     not declared; the adapter places them in BuildModel and locates them
//     by counting from the model's end.
//   - BuildModel constructs a fresh model for the layout, encoding the
//     current data completely (it is also the cold-baseline build, so it
//     should use the plain builder API, not splices).
//   - SpliceBlock inserts one block's structure into a live model at the
//     engine-computed variable/row positions. Static coefficients may be
//     written here; data-dependent values are left to RefreshModel, which
//     always runs after a splice pass.
//   - RefreshModel rewrites every data-dependent coefficient, objective
//     entry, bound, and right-hand side against the current member data.
//     Model setters no-op on unchanged values, so the delta class the
//     solver sees — and with it dual-simplex eligibility — stays exact.
//   - Extract caches partition p's solution on the adapter side (the engine
//     never interprets variables). sol is nil when the layout was empty or
//     all-zero-width — a vacuous sub-problem the engine did not solve.
//   - Clear resets partition p's cached result to empty (no members).
type Adapter interface {
	Layout(p int, ids []int, buf []Block) []Block
	BuildModel(p int, layout []Block) *lp.Model
	SpliceBlock(m *lp.Model, p int, b Block, varAt, rowAt int)
	RefreshModel(m *lp.Model, p int, layout []Block)
	Extract(p int, layout []Block, sol *lp.Solution, nVars int) error
	Clear(p int)
}

// sub is one partition's persistent LP state: the live model and the block
// sequence it currently encodes.
type sub struct {
	model  *lp.Model
	blocks []Block
}

// drop discards the model; the next sync rebuilds fresh.
func (s *sub) drop() {
	s.model = nil
	s.blocks = s.blocks[:0]
}

// syncScratch is what bringing one partition's model in line with its layout
// needs and nothing keeps afterwards: the wanted layout, its index by key,
// and where each current block sits in it. One is taken from the engine's
// pool per sub-solve, so an engine holds as many as it solves partitions at
// once rather than one per partition (a partition's worth is about 100 bytes
// per client).
type syncScratch struct {
	want    []Block
	wantPos map[BlockKey]int
	// wantAt[i] is the position of the model's block i in want, or -1 once
	// the block is known to leave; filled by overlap, read by splice.
	wantAt []int32
}

// engine is the domain-independent online engine: a tracker for stable
// partitions plus one persistent model per partition, kept in sync with the
// adapter's declared layout. Domain engines (ClusterEngine, LBEngine,
// TEEngine) wrap it with their delta APIs.
type engine struct {
	t      *tracker
	ad     Adapter
	lpOpts lp.Options
	subs   []*sub
	// seeds holds per-partition basis snapshots installed by a state
	// restore; each is consumed by that partition's next model build, so a
	// restored engine's first round attempts warm starts instead of solving
	// cold. A seed whose dimensions no longer fit is dropped by the solver.
	seeds []*lp.Basis
	// scratch recycles syncScratch values between sub-solves.
	scratch sync.Pool
}

func newEngine(ad Adapter, opts Options, lpOpts lp.Options) (*engine, error) {
	t, err := newTracker(opts)
	if err != nil {
		return nil, err
	}
	e := &engine{t: t, ad: ad, lpOpts: lpOpts, subs: make([]*sub, opts.K)}
	for p := range e.subs {
		e.subs[p] = &sub{}
	}
	return e, nil
}

// invalidateModels discards every partition's persistent model (the next
// sync rebuilds fresh). Domain engines call it when a shared-structure input
// changes shape — e.g. lb's server pool, which sets the per-block width.
func (e *engine) invalidateModels() {
	for _, s := range e.subs {
		s.drop()
	}
}

// solveRound re-solves every dirty partition through the adapter. With an
// observer attached it wraps the round in an "online.round" span and books
// the round-delta counters; the disabled path is one nil check.
func (e *engine) solveRound() error {
	o := e.t.opts.Obs
	if o == nil {
		return e.t.solveDirty(e.subSolve)
	}
	before := e.t.stats
	sp := o.Span("online.round")
	start := time.Now()
	err := e.t.solveDirty(e.subSolve)
	dur := time.Since(start)
	d := e.t.stats
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

// subSolve brings partition p's persistent model in line with the adapter's
// declared layout and current data, solves it, and hands the solution to the
// adapter. The sync path is chosen once per round:
//
//   - no model yet, warm starts disabled, or membership churned beyond
//     recognition (block-key overlap < 0.5): build fresh;
//   - otherwise splice departed blocks out and new blocks in, then refresh
//     all data-dependent values. A splice that cannot preserve survivor
//     order or shape falls back to a fresh build.
//
// Whether the refreshed coefficients left the stale basis worth warm
// repairing is no longer the engine's call: lp.Model prices a sample of the
// incoming coefficients against the previous solve's duals and drops a
// hostile basis itself, uniformly across adapters.
func (e *engine) subSolve(p int, ids []int) (subReport, error) {
	o := e.t.opts.Obs
	if o == nil {
		return e.subSolveObs(nil, p, ids)
	}
	// Each partition gets its own trace lane so parallel sub-solves render
	// side by side instead of overlapping on the engine's lane.
	po := o.WithTID(o.TID + 1 + p)
	sp := po.Span("online.subsolve").Arg("part", p).Arg("members", len(ids))
	rep, err := e.subSolveObs(po, p, ids)
	sp.End()
	return rep, err
}

func (e *engine) subSolveObs(po *obs.Observer, p int, ids []int) (subReport, error) {
	s := e.subs[p]
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
	want := sc.want
	if blockVars(want) == 0 {
		// Vacuous sub-problem (e.g. every commodity unroutable): nothing to
		// solve, but the adapter still records the empty result.
		s.drop()
		if err := e.ad.Extract(p, want, nil, 0); err != nil {
			return subReport{}, err
		}
		return subReport{buildNs: time.Since(start).Nanoseconds()}, nil
	}
	switch {
	case s.model == nil || e.t.opts.NoWarmStart || sc.overlap(s.blocks) < 0.5:
		e.rebuildObs(po, s, p, want)
	case !e.spliceObs(po, s, p, sc):
		e.rebuildObs(po, s, p, want)
	default:
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

func (e *engine) rebuild(s *sub, p int, want []Block) {
	s.model = e.ad.BuildModel(p, want)
	s.blocks = append(s.blocks[:0], want...) // want's array goes back to the scratch pool
	if p < len(e.seeds) && e.seeds[p] != nil {
		s.model.SetBasis(e.seeds[p])
		e.seeds[p] = nil
	}
}

// rebuildObs and spliceObs wrap the sync paths in their phase spans.
func (e *engine) rebuildObs(po *obs.Observer, s *sub, p int, want []Block) {
	sp := po.Span("online.rebuild").Arg("blocks", len(want))
	e.rebuild(s, p, want)
	sp.End()
}

func (e *engine) spliceObs(po *obs.Observer, s *sub, p int, sc *syncScratch) bool {
	sp := po.Span("online.splice")
	ok := e.splice(s, p, sc)
	sp.Arg("ok", ok).End()
	return ok
}

// splice mutates s.model toward the layout sc.want, which sc.overlap has
// just matched against s.blocks: blocks that vanished — or whose shape or
// content generation changed, making their structure stale — are removed
// back-to-front, missing blocks are inserted at their layout positions, and
// surviving blocks keep their variables, rows, and basis statuses. It
// reports false — the caller rebuilds — when the survivors' relative order
// differs from want's.
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
			wantAt[i] = -1 // vanished, reshaped, or regenerated: remove + resplice
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

func blockVars(layout []Block) int {
	n := 0
	for _, b := range layout {
		n += b.Vars
	}
	return n
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
