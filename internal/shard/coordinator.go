package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
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
// worker's batch is re-sent (idempotently) until a round lands. A batch is
// the ids touched since the last ack; what each one is — an upsert of the
// client's current data, or a remove — is read from the registry when the
// batch is packed.
type workerConn struct {
	t Transport
	WorkerStatus
	needSync bool
	last     gather // the worker's last gathered allocation, by ascending id, in the frame it came in
	numOwned int    // registry clients hashed onto this worker

	pend []int // ids upserted or removed since the last ack (any order, may repeat)
}

// Coordinator fans scheduling rounds out over shard workers, each behind a
// Transport. It hashes clients onto workers (owner), keeps the
// authoritative client registry (the rebuild source for a crashed worker),
// and runs each round as a deadline-bounded scatter/gather. It satisfies
// Engine. Not safe for concurrent use (popserver serializes rounds under
// its round mutex).
type Coordinator struct {
	opts CoordinatorOptions

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
		workers: make([]*workerConn, len(ts)),
	}
	for i, t := range ts {
		c.workers[i] = &workerConn{
			t:            t,
			WorkerStatus: WorkerStatus{URL: t.String()},
		}
	}
	return c, nil
}

// owner maps a client id to its worker, 0 ≤ owner < workers (0 when
// workers < 1): jump consistent hash (Lamping & Veach 2014) over the id's
// splitmix64 finalizer. It is a pure function of (id, workers), so a
// restarted coordinator rebuilds every client's owner with no table, and
// growing the fleet by one worker moves about 1/(W+1) of the ids, all of
// them onto the new worker. Shard sizes differ only by binomial noise,
// about 1/√(n/W).
func owner(id, workers int) int {
	h := uint64(id) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	b, j := 0, 0
	for j < workers {
		b = j
		h = h*2862933555777941757 + 1
		j = int(float64(b+1) * (float64(1<<31) / float64(h>>33+1)))
	}
	return b
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
	w := c.workers[owner(j.ID, len(c.workers))]
	if change == cluster.Arrived {
		w.numOwned++
	}
	w.pend = append(w.pend, j.ID)
}

// Remove drops a client from the registry and queues the removal.
func (c *Coordinator) Remove(id int) bool {
	if !c.registry.Remove(id) {
		return false
	}
	w := c.workers[owner(id, len(c.workers))]
	w.numOwned--
	w.pend = append(w.pend, id)
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
	resync   bool // the worker needs a full round next (the failure was one, or shows it)
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
// sent the round again as a full one, inside the same deadline. It ends span,
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
			// decide whether a full round is needed (a crashed worker will
			// 409).
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
		w.pend = w.pend[:0]
		if cap(w.pend) > w.numOwned/32 { // a cold load's ids are not held for the next round
			w.pend = nil
		}
		// A worker holding a different client count than the registry says
		// it owns has zombie or missing clients (e.g. the coordinator
		// restarted with a cold registry); send it a full round next.
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

// gatherOne runs one worker's slice of the round: the round request, full
// when the worker is flagged, and resent full when the worker says it is
// out of sync. Every error names the worker; a response that does not
// validate is an error like any other.
func (c *Coordinator) gatherOne(ctx context.Context, o *obs.Observer, i, round int, sub cluster.Cluster) (res gatherResult) {
	w := c.workers[i]
	full := w.needSync
	limit := responseLimit(w.numOwned, sub.NumTypes())
	var resp *RoundResponse
	req, err := c.buildRound(o, i, round, sub, full)
	if err == nil {
		resp, err = w.t.Round(ctx, o, req, limit)
	}
	if errors.Is(err, ErrOutOfSync) {
		// The worker is behind (fresh process, lost state): rebuild it with
		// a full round inside the same deadline.
		full = true
		if req, err = c.buildRound(o, i, round, sub, full); err == nil {
			resp, err = w.t.Round(ctx, o, req, limit)
		}
	}
	if err == nil {
		if res.cols, err = resp.accept(round, sub.NumTypes()); err != nil {
			err = fmt.Errorf("bad response: %w", err)
		}
	}
	if err != nil {
		res.err = fmt.Errorf("worker %d (%s): round: %w", i, w.URL, err)
		res.resync = full || errors.Is(err, ErrTooLarge)
		return res
	}
	res.resp = resp
	if full {
		res.rebuilds = 1
		c.opts.Log.Info("shard rebuild", "worker", i, "url", w.URL, "round", round, "jobs", req.IDsBytes/8)
	}
	return res
}

// buildRound packs worker i's scatter payload, a "shard.encode" phase on
// its lane, and the shard's capacity slice. A round carries the queued
// batch; a full one every client the registry gives the worker. Either
// goes in ascending-id order, the order the bare-engine equivalence relies
// on. The batch's ids are sorted and compacted in place, then resolved
// against the committed registry: a client it holds is upserted with its
// current data, one it does not is removed.
func (c *Coordinator) buildRound(o *obs.Observer, i, round int, sub cluster.Cluster, full bool) (*RoundRequest, error) {
	defer phase(o, "encode").End()
	w := c.workers[i]
	if full {
		jobs := make([]cluster.Job, 0, w.numOwned)
		for _, j := range c.registry.Jobs() { // committed before the scatter; read-only here
			if owner(j.ID, len(c.workers)) == i {
				jobs = append(jobs, j)
			}
		}
		return newRequest(round, w.Round, true, sub, jobs, nil)
	}
	slices.Sort(w.pend)
	w.pend = slices.Compact(w.pend)
	rows := c.registry.Jobs() // committed before the scatter; read-only here
	ups := make([]cluster.Job, 0, len(w.pend))
	var rms []int
	k := 0 // rows[:k] hold no id still to resolve
	for _, id := range w.pend {
		k += sort.Search(len(rows)-k, func(i int) bool { return rows[k+i].ID >= id })
		if k < len(rows) && rows[k].ID == id {
			ups = append(ups, rows[k])
		} else {
			rms = append(rms, id)
		}
	}
	return newRequest(round, w.Round, false, sub, ups, rms)
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
			wi = owner(j.ID, len(c.workers))
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
