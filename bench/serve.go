package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"pop/internal/cluster"
	"pop/internal/lp"
	"pop/internal/obs"
	"pop/internal/online"
	"pop/internal/price"
	"pop/internal/shard"
)

// population is the simulated client set of the serve workloads: the job
// generator of cmd/servebench under steady replace-churn (each round the
// oldest clients leave and as many fresh ones arrive).
type population struct {
	rnd      *rand.Rand
	active   []cluster.Job
	nextID   int
	perRound int
}

func newPopulation(seed int64, clients int, churn float64) *population {
	p := &population{
		rnd:      rand.New(rand.NewSource(seed)),
		active:   make([]cluster.Job, clients),
		perRound: max(1, int(float64(clients)*churn)),
	}
	for i := range p.active {
		p.active[i] = p.newJob()
	}
	return p
}

func (p *population) newJob() cluster.Job {
	j := cluster.Job{
		ID:         p.nextID,
		Throughput: []float64{1 + p.rnd.Float64(), 2 + 2*p.rnd.Float64(), 3 + 3*p.rnd.Float64()},
		Weight:     1,
		Scale:      1,
		NumSteps:   1000,
		Priority:   1,
	}
	p.nextID++
	return j
}

func (p *population) churn() {
	n := len(p.active)
	copy(p.active, p.active[p.perRound:])
	for i := n - p.perRound; i < n; i++ {
		p.active[i] = p.newJob()
	}
}

// servePool sizes the GPU pool to the population (n/8 per type), so
// per-client shares are the same at any client count.
func servePool(clients int) cluster.Cluster {
	per := float64(clients) / 8
	return cluster.NewCluster(per, per, per)
}

// serveReference is the exact max-min optimum of a small replica of the
// seed's population: the same generator, the first RefClients clients, the
// pool scaled to match. The optimum of this family does not depend on the
// client count (it is a property of the throughput distribution), and an
// exact LP over the full population would take minutes.
func serveReference(seed int64, sz sizes) (float64, error) {
	jobs := newPopulation(seed, sz.RefClients, sz.Churn).active
	pool := servePool(sz.RefClients)
	a, err := cluster.MaxMinFairness(jobs, pool, lp.Options{})
	if err != nil {
		return 0, err
	}
	return price.MaxMinObjective(jobs, pool, a), nil
}

// verifyClusterAllocation checks one round's merged allocation against its
// active set: one row per client, in order, finite, within every client's
// time budget and every GPU type's capacity.
func verifyClusterAllocation(active []cluster.Job, pool cluster.Cluster, a *cluster.Allocation) error {
	if a == nil {
		return fmt.Errorf("no allocation")
	}
	if len(a.EffThr) != len(active) || len(a.X) != len(active) {
		return fmt.Errorf("allocation has %d rows and %d throughputs for %d clients", len(a.X), len(a.EffThr), len(active))
	}
	for i, row := range a.X {
		if len(row) != pool.NumTypes() {
			return fmt.Errorf("client %d: row has %d types, pool has %d", active[i].ID, len(row), pool.NumTypes())
		}
		if t := a.EffThr[i]; math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("client %d: effective throughput %v", active[i].ID, t)
		}
	}
	return cluster.VerifyFeasible(active, pool, a, 1e-6)
}

// tap wraps one worker's HTTP handler. On traced passes it records a
// shard.handler span per round request, the handler's duration and the
// request and response payloads — all from outside the worker.
type tap struct {
	next http.Handler
	tr   *obs.Trace
	tid  int

	mu        sync.Mutex
	handlerMs float64
	req, resp bytes.Buffer
}

type teeBody struct {
	io.Reader
	io.Closer
}

type teeWriter struct {
	http.ResponseWriter
	buf *bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != shard.PathRound {
		t.next.ServeHTTP(w, r)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req.Reset()
	t.resp.Reset()
	r.Body = teeBody{io.TeeReader(r.Body, &t.req), r.Body}
	sp := t.tr.Begin(t.tid, "shard.handler")
	start := time.Now()
	t.next.ServeHTTP(&teeWriter{w, &t.resp}, r)
	t.handlerMs = float64(time.Since(start).Nanoseconds()) / 1e6
	sp.End()
}

// last returns the most recent round's handler time and payload sizes.
func (t *tap) last() (handlerMs float64, reqBytes, respBytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handlerMs, t.req.Len(), t.resp.Len()
}

// fleet is a coordinator over numWorkers in-process shard workers, each
// behind its own loopback HTTP server: the full wire path of a sharded
// popserver without process start-up in the measurement.
type fleet struct {
	coord   *shard.Coordinator
	bundles []*shard.EngineBundle
	taps    []*tap // nil on untraced passes
	servers []*httptest.Server
	client  *http.Client
}

func startFleet(policy string, k int, pool cluster.Cluster, tr *obs.Trace) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{}}}
	var urls []string
	for i := 0; i < numWorkers; i++ {
		b, err := shard.NewEngine(pool.Split(numWorkers), shard.EngineConfig{Policy: policy, K: k})
		if err != nil {
			f.close()
			return nil, err
		}
		h := shard.NewWorker(b, shard.WorkerOptions{}).Handler()
		if tr != nil {
			t := &tap{next: h, tr: tr, tid: 10 + i}
			f.taps = append(f.taps, t)
			h = t
		}
		srv := httptest.NewServer(h)
		f.bundles = append(f.bundles, b)
		f.servers = append(f.servers, srv)
		urls = append(urls, srv.URL)
	}
	coord, err := shard.NewCoordinator(urls, shard.CoordinatorOptions{Deadline: shardDeadline, Client: f.client})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

func (f *fleet) close() {
	f.client.CloseIdleConnections()
	for _, s := range f.servers {
		s.Close()
	}
}

// verify checks the round the coordinator just ran: nobody served stale,
// nobody rebuilt, every client lives on exactly one worker, and the merged
// allocation is feasible.
func (f *fleet) verify(active []cluster.Job, pool cluster.Cluster, a *cluster.Allocation) error {
	if n := f.coord.StaleJobs(); n > 0 {
		return fmt.Errorf("round %d served %d clients stale", f.coord.Round(), n)
	}
	held := 0
	for i, ws := range f.coord.Status() {
		if ws.Stale || ws.Rebuilds > 0 || ws.Round != f.coord.Round() {
			return fmt.Errorf("worker %d: stale=%v rebuilds=%d round=%d, coordinator at round %d",
				i, ws.Stale, ws.Rebuilds, ws.Round, f.coord.Round())
		}
		held += ws.Jobs
	}
	if held != len(active) {
		return fmt.Errorf("workers hold %d clients, %d are active", held, len(active))
	}
	return verifyClusterAllocation(active, pool, a)
}

// engineTotals sums the workers' engine counters into one view.
type engineTotals struct {
	price  price.Stats
	online online.Stats
}

func (f *fleet) engineTotals() engineTotals {
	var t engineTotals
	for _, b := range f.bundles {
		switch s := b.Stats().(type) {
		case price.Stats:
			t.price.Rounds += s.Rounds
			t.price.Iterations += s.Iterations
			t.price.ConvergedRounds += s.ConvergedRounds
			t.price.WarmPriceRounds += s.WarmPriceRounds
			t.price.ColdPriceRounds += s.ColdPriceRounds
			t.price.LastResidual = math.Max(t.price.LastResidual, s.LastResidual)
		case online.Stats:
			t.online.SubSolves += s.SubSolves
			t.online.SkippedClean += s.SkippedClean
			t.online.WarmAttempts += s.WarmAttempts
			t.online.WarmHits += s.WarmHits
			t.online.Iterations += s.Iterations
			t.online.DualPivots += s.DualPivots
			t.online.BuildNs += s.BuildNs
			t.online.SolveNs += s.SolveNs
		}
	}
	return t
}

// since returns the counters accumulated after the earlier reading.
func (t engineTotals) since(earlier engineTotals) engineTotals {
	t.price.Rounds -= earlier.price.Rounds
	t.price.Iterations -= earlier.price.Iterations
	t.price.ConvergedRounds -= earlier.price.ConvergedRounds
	t.price.WarmPriceRounds -= earlier.price.WarmPriceRounds
	t.price.ColdPriceRounds -= earlier.price.ColdPriceRounds
	t.online.SubSolves -= earlier.online.SubSolves
	t.online.SkippedClean -= earlier.online.SkippedClean
	t.online.WarmAttempts -= earlier.online.WarmAttempts
	t.online.WarmHits -= earlier.online.WarmHits
	t.online.Iterations -= earlier.online.Iterations
	t.online.DualPivots -= earlier.online.DualPivots
	t.online.BuildNs -= earlier.online.BuildNs
	t.online.SolveNs -= earlier.online.SolveNs
	return t
}

// servePass is one pass of a serve workload: cold-load the fleet with the
// whole population, warm it, then time ServeRounds churn rounds of
// Coordinator.Step in a closed loop (one driver, next round only after the
// previous one returned).
func servePass(rec *recorder, policy string, clients, k int) error {
	sz := rec.sz
	pool := servePool(clients)
	pop := newPopulation(rec.seed, clients, sz.Churn)

	var f *fleet
	var alloc *cluster.Allocation
	var loadMs float64
	err := rec.setup(func() error {
		var err error
		if f, err = startFleet(policy, k, pool, rec.tr); err != nil {
			return err
		}
		sp := rec.span(0, "shard.step")
		start := time.Now()
		alloc, err = f.coord.Step(pop.active, pool)
		loadMs = float64(time.Since(start).Nanoseconds()) / 1e6
		sp.End()
		return err
	})
	if f != nil {
		defer f.close()
	}
	if err != nil {
		return fmt.Errorf("cold load: %w", err)
	}
	rec.attempt(f.verify(pop.active, pool, alloc))

	// Traced passes also feed the same client sequence straight into one
	// engine of the same policy over the whole pool: the served round minus
	// the direct step is what serving through the fleet costs.
	var direct *shard.EngineBundle
	var directAlloc *cluster.Allocation
	var directMs []float64
	stepDirect := func(timed bool) error {
		if direct == nil {
			return nil
		}
		sp := rec.span(1, "engine.direct_step")
		start := time.Now()
		var err error
		directAlloc, err = direct.Engine.Step(pop.active, pool)
		if timed {
			directMs = append(directMs, float64(time.Since(start).Nanoseconds())/1e6)
		}
		sp.End()
		return err
	}
	if rec.traced() {
		if direct, err = shard.NewEngine(pool, shard.EngineConfig{Policy: policy, K: k * numWorkers}); err != nil {
			return err
		}
		if err := stepDirect(false); err != nil {
			return fmt.Errorf("direct engine: %w", err)
		}
	}

	step := func() error {
		sp := rec.span(0, "shard.step")
		var err error
		alloc, err = f.coord.Step(pop.active, pool)
		sp.End()
		return err
	}
	check := func() error { return f.verify(pop.active, pool, alloc) }

	for r := 0; r < warmupRounds; r++ {
		pop.churn()
		err := step()
		if err == nil {
			err = check()
		}
		rec.attempt(err)
		if err := stepDirect(false); err != nil {
			return fmt.Errorf("direct engine: %w", err)
		}
	}

	rec.beginTimed()
	before := f.engineTotals()
	var handler, solve, workerOver, coordOver []float64
	var reqBytes, respBytes float64
	residualMax, staleRounds := 0.0, 0
	for r := 0; r < sz.ServeRounds; r++ {
		pop.churn()
		rec.round(step, check)
		if !rec.traced() {
			continue
		}
		// Attribute the round to its slowest worker: the coordinator waits
		// for it, so step − handler is coordinator-side time (diff, encode,
		// HTTP, decode, merge) and handler − solve is worker-side wire time.
		stepMs := rec.res.roundMs[len(rec.res.roundMs)-1]
		slowMs, slowSolve := 0.0, 0.0
		status := f.coord.Status()
		for i, t := range f.taps {
			ms, rq, rs := t.last()
			reqBytes += float64(rq)
			respBytes += float64(rs)
			if ms > slowMs {
				slowMs, slowSolve = ms, status[i].SolveMs
			}
		}
		handler = append(handler, slowMs)
		solve = append(solve, slowSolve)
		workerOver = append(workerOver, slowMs-slowSolve)
		coordOver = append(coordOver, stepMs-slowMs)
		residualMax = math.Max(residualMax, f.engineTotals().price.LastResidual)
		if f.coord.StaleJobs() > 0 {
			staleRounds++
		}
		if err := stepDirect(true); err != nil {
			return fmt.Errorf("direct engine: %w", err)
		}
	}
	timed := f.engineTotals().since(before)
	dp, do := timed.price, timed.online

	rec.res.objective = price.MaxMinObjective(pop.active, pool, alloc)
	rec.count("quality.objective", rec.res.objective)
	rec.count("price.iterations", float64(dp.Iterations))
	rec.count("lp.pivots", float64(do.Iterations))
	rec.count("online.sub_solves", float64(do.SubSolves))

	if rec.traced() {
		n := float64(sz.ServeRounds)
		l := rec.res.layer
		l["shard.handler_ms_p50"] = median(handler)
		l["shard.worker_solve_ms_p50"] = median(solve)
		l["shard.worker_overhead_ms_p50"] = median(workerOver)
		l["shard.coord_overhead_ms_p50"] = median(coordOver)
		l["shard.req_bytes"] = reqBytes / n
		l["shard.resp_bytes"] = respBytes / n
		l["shard.load_ms_p50"] = loadMs
		l["shard.stale_rounds"] = float64(staleRounds)
		for _, ws := range f.coord.Status() {
			l["shard.rebuilds"] += float64(ws.Rebuilds)
		}
		// Request payloads carry no timings, so their size must repeat;
		// responses embed solve_ms and the engine's *_ns counters.
		rec.count("shard.req_bytes", reqBytes)
		l["shard.json_encode_ms_p50"], l["shard.json_decode_ms_p50"], err = replayJSON(rec, f.taps[0])
		if err != nil {
			return err
		}

		l["price.iterations"] = float64(dp.Iterations) / n
		l["price.warm_rounds"] = float64(dp.WarmPriceRounds) / n
		l["price.cold_rounds"] = float64(dp.ColdPriceRounds) / n
		l["price.nonconverged_rounds"] = float64(dp.Rounds-dp.ConvergedRounds) / n
		l["price.residual_max"] = residualMax
		l["online.sub_solves"] = float64(do.SubSolves) / n
		l["online.skipped_clean"] = float64(do.SkippedClean) / n
		if do.WarmAttempts > 0 {
			l["online.warm_hit_pct"] = 100 * float64(do.WarmHits) / float64(do.WarmAttempts)
		}
		l["online.build_ms"] = float64(do.BuildNs) / 1e6 / n
		l["online.solve_ms"] = float64(do.SolveNs) / 1e6 / n
		l["lp.pivots"] = float64(do.Iterations) / n
		l["lp.dual_pivots"] = float64(do.DualPivots) / n
		if do.Iterations > 0 {
			l["lp.us_per_pivot"] = float64(do.SolveNs) / 1e3 / float64(do.Iterations)
		}
		if direct.Kind == "price" {
			l["price.direct_step_ms_p50"] = median(directMs)
		} else {
			l["online.direct_step_ms_p50"] = median(directMs)
			// The merged allocation drops the LP size; the direct engine
			// solves the same sub-problem count over the same clients.
			l["lp.vars"] = float64(directAlloc.LPVariables)
		}
	}
	rec.finish(f, pop, alloc)
	return nil
}

// replayJSON times encoding/json on the protocol types over the payloads
// worker 0 exchanged in the last round: what the wire format itself costs,
// apart from HTTP and the engines.
func replayJSON(rec *recorder, t *tap) (encodeMs, decodeMs float64, err error) {
	sp := rec.span(1, "json.replay")
	defer sp.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	var enc, dec []float64
	for rep := 0; rep < 5; rep++ {
		var req shard.RoundRequest
		var resp shard.RoundResponse
		start := time.Now()
		if err := json.NewDecoder(bytes.NewReader(t.req.Bytes())).Decode(&req); err != nil {
			return 0, 0, fmt.Errorf("replay request: %w", err)
		}
		if err := json.NewDecoder(bytes.NewReader(t.resp.Bytes())).Decode(&resp); err != nil {
			return 0, 0, fmt.Errorf("replay response: %w", err)
		}
		dec = append(dec, float64(time.Since(start).Nanoseconds())/1e6)
		start = time.Now()
		if err := json.NewEncoder(io.Discard).Encode(&req); err != nil {
			return 0, 0, err
		}
		if err := json.NewEncoder(io.Discard).Encode(&resp); err != nil {
			return 0, 0, err
		}
		enc = append(enc, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(enc), median(dec), nil
}
