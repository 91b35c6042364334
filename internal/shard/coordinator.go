package shard

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// WorkerStatus is one worker's externally visible state (served by
// popserver's /v1/stats): its address, the last round it acked, whether it
// is serving stale rows, and what it last reported about itself.
type WorkerStatus struct {
	URL        string          `json:"url"`
	Round      int             `json:"round"`
	Stale      bool            `json:"stale"`
	Jobs       int             `json:"jobs"`
	SolveMs    float64         `json:"solve_ms"`
	Stragglers int64           `json:"stragglers"`
	Rebuilds   int64           `json:"rebuilds"`
	Kind       string          `json:"kind,omitempty"`
	Stats      json.RawMessage `json:"stats,omitempty"`
}

// workerConn is the coordinator's view of one shard worker: how to reach
// it, its status, the allocation it last returned, and the mutation batch
// queued for it. Batches clear only on ack — a straggling or crashed
// worker's batch is re-sent (idempotently) until a round lands.
type workerConn struct {
	t Transport
	WorkerStatus
	needSync bool
	last     gather // the worker's last gathered allocation, by ascending id, in the frame it came in
	numOwned int    // registry clients hashed onto this worker

	pendUp map[int]cluster.Job
	pendRm map[int]bool
}

// Coordinator fans scheduling rounds out over shard workers, each behind a
// Transport. It consistent-hashes clients onto workers, keeps the
// authoritative client registry (the rebuild source for a crashed worker),
// and runs each round as a deadline-bounded scatter/gather. It satisfies
// Engine. Not safe for concurrent use (popserver serializes rounds under
// its round mutex).
type Coordinator struct {
	opts CoordinatorOptions
	ring *Ring

	workers  []*workerConn
	registry cluster.Table
	round    int
	c        cluster.Cluster

	lastStale []bool
	staleJobs int
}

// newCoordinator builds a coordinator over one transport per worker.
func newCoordinator(ts []Transport, opts CoordinatorOptions) (*Coordinator, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one worker")
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	if opts.Deadline <= 0 {
		opts.Deadline = 10 * time.Second
	}
	c := &Coordinator{
		opts:    opts,
		ring:    NewRing(len(ts)),
		workers: make([]*workerConn, len(ts)),
	}
	for i, t := range ts {
		c.workers[i] = &workerConn{
			t:            t,
			WorkerStatus: WorkerStatus{URL: t.String()},
			pendUp:       map[int]cluster.Job{},
			pendRm:       map[int]bool{},
		}
	}
	return c, nil
}

// Round reports the last completed round.
func (c *Coordinator) Round() int { return c.round }

// Upsert registers (or updates) a client and queues the mutation for its
// shard's next round. Re-submitting unchanged data queues nothing.
func (c *Coordinator) Upsert(j cluster.Job) {
	change := c.registry.Upsert(j)
	if change == cluster.Unchanged {
		return
	}
	w := c.workers[c.ring.Owner(j.ID)]
	if change == cluster.Arrived {
		w.numOwned++
	}
	w.pendUp[j.ID] = j
	delete(w.pendRm, j.ID)
}

// Remove drops a client from the registry and queues the removal.
func (c *Coordinator) Remove(id int) bool {
	if !c.registry.Remove(id) {
		return false
	}
	w := c.workers[c.ring.Owner(id)]
	w.numOwned--
	w.pendRm[id] = true
	delete(w.pendUp, id)
	return true
}

// Jobs returns a copy of the registered clients in ascending-ID order.
func (c *Coordinator) Jobs() []cluster.Job {
	c.registry.Commit(nil)
	return slices.Clone(c.registry.Jobs())
}

// NumJobs reports the registered client count.
func (c *Coordinator) NumJobs() int { return c.registry.Len() }

// LastStale returns the per-client stale flags of the last round, aligned
// with the allocation it returned: true when the client's worker missed the
// round deadline (the row is last round's allocation) or has no row for it
// yet.
func (c *Coordinator) LastStale() []bool { return c.lastStale }

// StaleJobs reports how many clients the last round served stale.
func (c *Coordinator) StaleJobs() int { return c.staleJobs }

// Status snapshots every worker's externally visible state.
func (c *Coordinator) Status() []WorkerStatus {
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.WorkerStatus
	}
	return out
}

// gatherResult is one worker's outcome for a round.
type gatherResult struct {
	resp     *RoundResponse
	cols     gather
	err      error
	rebuilds int64
	resync   bool // the failure itself shows the worker needs a registry sync
}

// phase opens one coordinator-side child of "shard.round": the span plus
// the matching pop_shard_phase_seconds series.
func phase(o *obs.Observer, name string) obs.Timed {
	if o == nil {
		return obs.Timed{}
	}
	return o.Timed("shard."+name, `pop_shard_phase_seconds{phase="`+name+`"}`, "coordinator round time by phase")
}

// Allocate runs one scatter/gather round over the registered clients and
// returns them in ascending-ID order with the merged allocation aligned.
// The job slice aliases the registry: read-only, valid until the next
// Upsert or Remove.
func (c *Coordinator) Allocate(pool cluster.Cluster) ([]cluster.Job, *cluster.Allocation, error) {
	span := c.opts.Obs.Span("shard.round")
	c.registry.Commit(nil)
	jobs := c.registry.Jobs()
	return jobs, c.scatterGather(span, jobs, pool), nil
}

// Step applies the diff between the registry and the active set, then runs
// one round and returns the allocation in active-set order.
func (c *Coordinator) Step(active []cluster.Job, pool cluster.Cluster) (*cluster.Allocation, error) {
	span := c.opts.Obs.Span("shard.round")
	diff := phase(c.opts.Obs, "diff")
	c.registry.Reconcile(active, c.Upsert, c.Remove)
	c.registry.Commit(nil)
	diff.End()
	return c.scatterGather(span, active, pool), nil
}

// scatterGather is the round proper: each worker gets its shard's mutation
// batch and 1/W of the pool, solves its partition on its own persistent
// engine, and returns its allocation, which is merged onto order (the
// registered clients, in whatever order the caller wants them). Workers
// that miss the deadline (or fail, or answer garbage) keep serving last
// round's rows, flagged stale; a worker that reports being out of sync is
// rebuilt from the registry first, inside the same deadline. It ends span,
// the caller's open "shard.round".
func (c *Coordinator) scatterGather(span *obs.Span, order []cluster.Job, pool cluster.Cluster) *cluster.Allocation {
	c.c = pool
	c.round++
	round := c.round
	sub := pool.Split(len(c.workers))
	o := c.opts.Obs
	span.Arg("round", round).Arg("workers", len(c.workers))
	start := time.Now()

	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Deadline)
	defer cancel()

	baseTID := 0
	if o != nil {
		baseTID = o.TID
	}
	results := make([]gatherResult, len(c.workers))
	var wg sync.WaitGroup
	for i := range c.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wo := o.WithTID(baseTID + 1 + i)
			sp := wo.Span("shard.gather").Arg("worker", i)
			results[i] = c.gatherOne(ctx, wo, i, round, sub)
			sp.Arg("ok", results[i].err == nil).End()
		}(i)
	}
	wg.Wait()

	stragglers := 0
	for i, w := range c.workers {
		res := results[i]
		w.Rebuilds += res.rebuilds
		if res.rebuilds > 0 {
			o.Counter("pop_shard_rebuilds_total", "workers rebuilt from the client registry").Add(res.rebuilds)
		}
		if res.err != nil {
			// Straggler or crash: keep last round's allocation, keep the
			// unacked batch queued, and let the health of the next round
			// decide whether a sync is needed (a crashed worker will 409).
			w.Stale = true
			w.needSync = w.needSync || res.resync
			w.Stragglers++
			stragglers++
			o.Counter("pop_shard_stragglers_total", "worker rounds lost to the deadline or errors").Inc()
			c.opts.Log.Warn("shard straggler", "worker", i, "url", w.URL, "round", round, "err", res.err)
			continue
		}
		resp := res.resp
		w.Stale = false
		w.Round = round
		w.Kind = resp.Kind
		w.Stats = resp.Stats
		w.SolveMs = resp.SolveMs
		w.Jobs = resp.NumJobs
		// Fresh maps, not cleared ones: a cold load's batch would otherwise
		// keep its buckets allocated for the life of the worker.
		w.pendUp = map[int]cluster.Job{}
		w.pendRm = map[int]bool{}
		// A worker holding a different client count than the registry says
		// it owns has zombie or missing clients (e.g. the coordinator
		// restarted with a cold registry); reconcile it next round.
		w.needSync = resp.NumJobs != w.numOwned
		w.last = res.cols
		o.Histogram(`pop_shard_worker_seconds{worker="`+strconv.Itoa(i)+`"}`,
			"per-worker round latency as observed by the coordinator").Observe(resp.SolveMs / 1000)
	}

	mp := phase(o, "merge")
	out, stale, staleJobs := c.merge(order)
	mp.End()
	c.lastStale, c.staleJobs = stale, staleJobs
	dur := time.Since(start)
	o.Counter("pop_shard_rounds_total", "completed scatter/gather rounds").Inc()
	o.Histogram("pop_shard_gather_seconds", "scatter/gather round wall time").Observe(dur.Seconds())
	o.Gauge("pop_shard_stale_jobs", "clients served a stale allocation in the last round").Set(float64(staleJobs))
	o.Gauge("pop_shard_stale_workers", "workers stale after the last round").Set(float64(stragglers))
	span.Arg("stragglers", stragglers).Arg("stale_jobs", staleJobs).End()
	c.opts.Log.Info("shard round", "round", round, "jobs", len(order),
		"stragglers", stragglers, "stale_jobs", staleJobs,
		"gather_ms", float64(dur.Microseconds())/1000)
	return out
}

// responseLimit bounds a round response by what the worker should be
// holding: a full header, plus 8 bytes per id, throughput, and time fraction
// of every client the registry gave it, doubled. A worker that answers with
// more is holding clients the registry never gave it.
func responseLimit(owned, types int) int64 {
	return maxHeaderBytes + 2*int64(owned)*int64(8*(2+types))
}

// gatherOne runs one worker's slice of the round: an optional registry sync
// (when flagged, or when the worker says it is out of sync), then the round
// request. Every error names the worker; a response that does not validate
// is an error like any other.
func (c *Coordinator) gatherOne(ctx context.Context, o *obs.Observer, i, round int, sub cluster.Cluster) (res gatherResult) {
	w := c.workers[i]
	fail := func(what string, err error) gatherResult {
		res.err = fmt.Errorf("worker %d (%s): %s: %w", i, w.URL, what, err)
		res.resync = errors.Is(err, ErrTooLarge)
		return res
	}
	if w.needSync {
		if err := c.syncWorker(ctx, o, i, round-1, sub); err != nil {
			return fail("sync", err)
		}
		res.rebuilds++
	}
	req, err := c.buildRound(o, i, round, w.Round, sub)
	if err != nil {
		return fail("round", err)
	}
	limit := responseLimit(w.numOwned, sub.NumTypes())
	resp, err := w.t.Round(ctx, o, req, limit)
	if errors.Is(err, ErrOutOfSync) {
		// The worker is behind (fresh process, lost state): rebuild it from
		// the registry, then retry the round inside the same deadline.
		if err := c.syncWorker(ctx, o, i, round-1, sub); err != nil {
			return fail("sync after conflict", err)
		}
		res.rebuilds++
		if req, err = c.buildRound(o, i, round, round-1, sub); err == nil {
			resp, err = w.t.Round(ctx, o, req, limit)
		}
	}
	if err == nil {
		if res.cols, err = resp.accept(round, sub.NumTypes()); err != nil {
			err = fmt.Errorf("bad response: %w", err)
		}
	}
	if err != nil {
		return fail("round", err)
	}
	res.resp = resp
	return res
}

// buildRound packs worker i's scatter payload, a "shard.encode" phase on
// its lane: the queued batch in deterministic (ascending-id) order — the
// order the bare-engine equivalence relies on — and the shard's capacity
// slice.
func (c *Coordinator) buildRound(o *obs.Observer, i, round, prevRound int, sub cluster.Cluster) (*RoundRequest, error) {
	defer phase(o, "encode").End()
	w := c.workers[i]
	ups := slices.SortedFunc(maps.Values(w.pendUp), func(a, b cluster.Job) int { return cmp.Compare(a.ID, b.ID) })
	return newRequest(round, prevRound, sub, ups, slices.Sorted(maps.Keys(w.pendRm)))
}

// syncWorker rebuilds worker i from the authoritative registry: the full
// client set of its shard, as of baseRound (this round's mutations are
// already folded into the registry; the retried round request re-applies
// them idempotently).
func (c *Coordinator) syncWorker(ctx context.Context, o *obs.Observer, i, baseRound int, sub cluster.Cluster) error {
	w := c.workers[i]
	ep := phase(o, "encode")
	jobs := make([]cluster.Job, 0, w.numOwned)
	for _, j := range c.registry.Jobs() { // committed before the scatter; read-only here
		if c.ring.Owner(j.ID) == i {
			jobs = append(jobs, j)
		}
	}
	req, err := newRequest(baseRound, 0, sub, jobs, nil)
	ep.End()
	if err != nil {
		return err
	}
	resp, err := w.t.Sync(ctx, o, req)
	if err != nil {
		return err
	}
	w.needSync = false
	c.opts.Log.Info("shard rebuild", "worker", i, "url", w.URL, "base_round", baseRound,
		"jobs", len(jobs), "kept_warm", resp.Kept)
	return nil
}

// merge composes the per-worker allocations onto order — POP's reduce step
// across processes — as one n×r slab, by cursor rather than by hashing.
// Each worker's last gather is sorted by id, and order usually is too, so
// each row is read from whichever worker's cursor holds its id: W compares,
// no hash. Only a row no cursor holds (order is not by id, or a stale
// worker never allocated the client) is looked up the long way, by owner
// and binary search. A worker whose client count disagrees with the
// registry (needSync) may hold clients it does not own, so its cursor is
// not consulted; its rows, too, are found by owner. Clients of stale
// workers get their last gathered row (or a zero row if the worker never
// allocated them), flagged.
func (c *Coordinator) merge(order []cluster.Job) (*cluster.Allocation, []bool, int) {
	n, r := len(order), c.c.NumTypes()
	slab := make([]float64, n*r)
	out := &cluster.Allocation{
		X:      make([][]float64, n),
		EffThr: make([]float64, n),
	}
	stale := make([]bool, n)
	cursor := make([]int, len(c.workers))
	staleJobs, haveX := 0, false
	for pos, j := range order {
		out.X[pos] = slab[pos*r : (pos+1)*r : (pos+1)*r]
		wi, k, ok := 0, 0, false
		for i, w := range c.workers {
			if k = cursor[i]; !w.needSync && k < w.last.n() && w.last.id(k) == j.ID {
				wi, ok = i, true
				break
			}
		}
		if !ok {
			wi = c.ring.Owner(j.ID)
			k, ok = c.workers[wi].last.find(j.ID, cursor[wi])
		}
		w := c.workers[wi]
		g := &w.last
		if ok {
			cursor[wi] = k + 1
			out.EffThr[pos] = f64(g.effThr, k)
			if g.width > 0 {
				haveX = true
				for t := range min(r, g.width) {
					out.X[pos][t] = f64(g.x, k*g.width+t)
				}
			}
		}
		if w.Stale || !ok {
			stale[pos] = true
			staleJobs++
		}
	}
	if !haveX {
		out.X = nil
	}
	return out, stale, staleJobs
}
