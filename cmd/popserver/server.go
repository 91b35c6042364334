package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
	"pop/internal/online"
	"pop/internal/price"
	"pop/internal/shard"
)

// jobSpec is the wire format of a job submission.
type jobSpec struct {
	ID         int       `json:"id"`
	Throughput []float64 `json:"throughput"`
	Weight     float64   `json:"weight,omitempty"`
	Scale      float64   `json:"scale,omitempty"`
	NumSteps   float64   `json:"num_steps,omitempty"`
	MemFrac    float64   `json:"mem_frac,omitempty"`
}

// jobAlloc is one job's slice of the current allocation snapshot. X is the
// solo time fraction per GPU type; under the space-sharing policy jobs run
// in shared slots instead, so X is omitted and EffThr already folds in the
// interference factors. Stale marks a row carried over from an earlier
// round because the job's shard worker missed the round deadline.
type jobAlloc struct {
	ID     int       `json:"id"`
	X      []float64 `json:"x,omitempty"` // time fraction per GPU type
	EffThr float64   `json:"effective_throughput"`
	Stale  bool      `json:"stale,omitempty"`
}

// epoch is one completed round, published whole behind server.epoch and
// never written again — the merged allocation, the ascending id column it
// is aligned with, the workers' state and engine counters of that instant —
// so reads take no lock and never touch the coordinator. The exported
// fields head the GET /v1/allocation document.
type epoch struct {
	Round       int       `json:"round"`
	ComputedAt  time.Time `json:"computed_at"`
	SolveTimeMs float64   `json:"solve_time_ms"`
	NumJobs     int       `json:"num_jobs"`
	StaleJobs   int       `json:"stale_jobs,omitempty"`

	ids     []int
	alloc   *cluster.Allocation
	stale   []bool
	workers []shard.WorkerStatus
}

func (e *epoch) row(k int) jobAlloc {
	ja := jobAlloc{ID: e.ids[k], EffThr: e.alloc.EffThr[k], Stale: e.stale[k]}
	if e.alloc.X != nil {
		ja.X = e.alloc.X[k]
	}
	return ja
}

// mutation is one buffered state change (submit or remove).
type mutation struct {
	submit *cluster.Job
	remove int
}

// serverConfig selects where the workers run and the hardening knobs.
type serverConfig struct {
	// policy is maxmin | makespan | spacesharing | price.
	policy string
	// opts tune the in-process worker's engine (ignored with workers set,
	// where the worker processes own the engines).
	opts online.Options
	// workers, when non-empty, are the base URLs of the shard-worker
	// processes to coordinate; empty means one worker inside this process.
	workers []string
	// deadline bounds a round's scatter/gather (0 = 10s).
	deadline time.Duration
	// authToken, when non-empty, is required (as a bearer token) on every
	// mutating endpoint and stamped on coordinator→worker requests.
	authToken shard.Token
	// quota caps per-tenant job submissions per round (X-Pop-Tenant header,
	// "default" when absent); exceeding it answers 429. 0 = unlimited.
	quota int
	// stateFile persists the in-process worker's warm state across restarts
	// (worker processes have their own -state-file).
	stateFile string
}

// server batches mutations between rounds and runs one coordinator round
// per tick. mu guards only the cheap shared state (pending queue, cluster,
// tenant quotas), so submissions never wait on a solve, and allocation reads
// take no lock at all: each round is published as an immutable epoch.
// roundMu serializes rounds, which are the only coordinator access.
type server struct {
	cfg serverConfig

	mu      sync.Mutex
	pending []mutation
	tenants map[string]int // submissions per tenant since the last round

	epoch atomic.Pointer[epoch] // the last completed round; never nil

	roundMu sync.Mutex
	coord   *shard.Coordinator
	// saveState is the shutdown save (called after drain): the in-process
	// worker's -state-file, nothing when every worker is remote.
	saveState func() error
	// engineKind is the in-process engine's kind ("lp" or "price"), or
	// "sharded" over remote workers — /v1/stats' engine_kind.
	engineKind string

	c       cluster.Cluster
	started time.Time

	// reg is the server's metrics registry (GET /metrics); the coordinator,
	// the in-process worker, its engine, and the LP sub-solves book into it
	// through the observer installed at construction.
	reg *obs.Registry
	log *slog.Logger
}

// newServer builds the daemon: a shard coordinator over the worker
// processes cfg.workers names or, with none named, over one worker in this
// process around the policy-selected engine (maxmin|makespan|spacesharing:
// incremental LP; price: price discovery), restored from cfg.stateFile.
func newServer(c cluster.Cluster, cfg serverConfig, logger *slog.Logger) (*server, error) {
	return newServerWith(c, cfg, logger, shard.NewEngine)
}

// newServerWith takes the in-process worker's engine constructor, so tests
// can keep a handle on the engine or hand in a failing one.
func newServerWith(c cluster.Cluster, cfg serverConfig, logger *slog.Logger,
	newEngine func(cluster.Cluster, shard.EngineConfig) (*shard.EngineBundle, error)) (*server, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	reg := obs.NewRegistry()
	if cfg.opts.Obs == nil {
		cfg.opts.Obs = &obs.Observer{Metrics: reg}
	} else if cfg.opts.Obs.Metrics != nil {
		reg = cfg.opts.Obs.Metrics // caller-supplied registry backs /metrics too
	}
	s := &server{
		cfg:        cfg,
		c:          c,
		tenants:    map[string]int{},
		saveState:  func() error { return nil },
		engineKind: "sharded",
		started:    time.Now(),
		reg:        reg,
		log:        logger,
	}
	copts := shard.CoordinatorOptions{Deadline: cfg.deadline, Token: cfg.authToken, Obs: cfg.opts.Obs, Log: logger}
	var err error
	if len(cfg.workers) > 0 {
		s.coord, err = shard.NewCoordinator(cfg.workers, copts)
	} else {
		var b *shard.EngineBundle
		b, err = newEngine(c, shard.EngineConfig{
			Policy:    cfg.policy,
			K:         cfg.opts.K,
			Parallel:  cfg.opts.Parallel,
			Rebalance: cfg.opts.Rebalance,
			Obs:       cfg.opts.Obs,
		})
		if err != nil {
			return nil, err
		}
		w := shard.NewWorker(b, shard.WorkerOptions{StateFile: cfg.stateFile, Obs: cfg.opts.Obs, Log: logger})
		s.saveState, s.engineKind = w.SaveState, b.Kind
		s.coord, err = shard.NewLocalCoordinator([]*shard.Worker{w}, copts)
	}
	if err != nil {
		return nil, err
	}
	// A coordinator seeded from a restored worker resumes at its round.
	s.epoch.Store(&epoch{Round: s.coord.Round(), alloc: &cluster.Allocation{}, workers: s.coord.Status()})
	return s, nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	auth := s.cfg.authToken.Middleware
	// Mutating endpoints sit behind the bearer token (a no-op middleware
	// when no token is configured); reads and probes stay open.
	mux.Handle("POST /v1/jobs", auth(http.HandlerFunc(s.handleSubmit)))
	mux.Handle("DELETE /v1/jobs/{id}", auth(http.HandlerFunc(s.handleRemove)))
	mux.Handle("PUT /v1/cluster", auth(http.HandlerFunc(s.handleSetCluster)))
	mux.Handle("POST /v1/tick", auth(http.HandlerFunc(s.handleTick)))
	mux.HandleFunc("GET /v1/allocation", s.handleAllocation)
	mux.HandleFunc("GET /v1/allocation/{id}", s.handleAllocationOne)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return s.instrument(mux)
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// statusRecorder captures the status code the handler wrote (200 when it
// never called WriteHeader explicitly).
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux with per-endpoint latency histograms and request
// counters, stamps every response with the monotonic round counter, and
// emits a debug-level structured log line per request.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		w.Header().Set("X-Pop-Round", strconv.Itoa(s.epoch.Load().Round))
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		dur := time.Since(start)

		// The registered pattern ("POST /v1/jobs") keeps the label
		// cardinality fixed regardless of path parameters; unmatched
		// requests collapse into one bucket.
		path := r.Pattern
		if i := strings.IndexByte(path, ' '); i >= 0 {
			path = path[i+1:]
		}
		if path == "" {
			path = "unmatched"
		}
		s.reg.Histogram(`pop_http_request_seconds{path="`+path+`"}`,
			"HTTP request latency by endpoint", nil).Observe(dur.Seconds())
		s.reg.Counter(`pop_http_requests_total{path="`+path+`",code="`+strconv.Itoa(rec.code)+`"}`,
			"HTTP requests by endpoint and status").Inc()
		s.log.Debug("request",
			"method", r.Method, "path", r.URL.Path, "status", rec.code,
			"duration_ms", float64(dur.Microseconds())/1000)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// validateSpec checks one submission and normalizes it into a cluster.Job.
func (s *server) validateSpec(spec jobSpec, numTypes int) (cluster.Job, error) {
	if spec.ID < 0 {
		return cluster.Job{}, fmt.Errorf("id must be non-negative")
	}
	if len(spec.Throughput) != numTypes {
		return cluster.Job{}, fmt.Errorf("throughput must have %d entries (one per GPU type)", numTypes)
	}
	for _, t := range spec.Throughput {
		if t < 0 {
			return cluster.Job{}, fmt.Errorf("throughputs must be non-negative")
		}
	}
	job := cluster.Job{
		ID:         spec.ID,
		Throughput: spec.Throughput,
		Weight:     spec.Weight,
		Scale:      spec.Scale,
		NumSteps:   spec.NumSteps,
		MemFrac:    spec.MemFrac,
		Priority:   1,
	}
	if job.Weight <= 0 {
		job.Weight = 1
	}
	if job.Scale <= 0 {
		job.Scale = 1
	}
	if job.NumSteps <= 0 {
		job.NumSteps = 1
	}
	return job, nil
}

// handleSubmit accepts one job spec or a JSON array of them (the batch
// path high-churn clients use to amortize request overhead). Submissions
// count against the caller's per-tenant round quota.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var specs []jobSpec
	if trimmed := bytes.TrimSpace(body); len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &specs); err != nil {
			writeErr(w, http.StatusBadRequest, "bad job batch: %v", err)
			return
		}
	} else {
		var spec jobSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			writeErr(w, http.StatusBadRequest, "bad job spec: %v", err)
			return
		}
		specs = []jobSpec{spec}
	}

	s.mu.Lock()
	numTypes := s.c.NumTypes()
	s.mu.Unlock()
	jobs := make([]cluster.Job, len(specs))
	for i, spec := range specs {
		job, err := s.validateSpec(spec, numTypes)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "job %d: %v", spec.ID, err)
			return
		}
		jobs[i] = job
	}

	tenant := r.Header.Get("X-Pop-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	if q := s.cfg.quota; q > 0 && s.tenants[tenant]+len(jobs) > q {
		used := s.tenants[tenant]
		s.mu.Unlock()
		s.reg.Counter("pop_quota_rejections_total", "submissions rejected by the per-tenant round quota").Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			"tenant %q over quota: %d submitted + %d requested > %d per round", tenant, used, len(jobs), q)
		return
	}
	s.tenants[tenant] += len(jobs)
	for i := range jobs {
		s.pending = append(s.pending, mutation{submit: &jobs[i]})
	}
	n := len(s.pending)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{"queued": true, "accepted": len(jobs), "pending": n})
}

func (s *server) handleRemove(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad id: %v", err)
		return
	}
	s.mu.Lock()
	s.pending = append(s.pending, mutation{submit: nil, remove: id})
	n := len(s.pending)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{"queued": true, "pending": n})
}

// clusterSpec is the wire format of a resource-capacity update.
type clusterSpec struct {
	GPUs []float64 `json:"gpus"`
}

// handleSetCluster installs new per-type GPU capacities (the autoscaling
// path). The change takes effect at the next round, where it dirties every
// sub-problem; under MinMakespan the deltas are pure right-hand sides, so
// the re-solves ride the dual simplex. The type set is fixed at startup —
// jobs are validated against it — so the capacity vector must keep its
// length.
func (s *server) handleSetCluster(w http.ResponseWriter, r *http.Request) {
	var spec clusterSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "bad cluster spec: %v", err)
		return
	}
	// The type count is fixed at startup (every accepted PUT preserves it),
	// so validating against a snapshot then writing under a fresh lock stays
	// consistent.
	s.mu.Lock()
	numTypes := s.c.NumTypes()
	s.mu.Unlock()
	if len(spec.GPUs) != numTypes {
		writeErr(w, http.StatusBadRequest, "gpus must have %d entries (one per GPU type)", numTypes)
		return
	}
	for _, g := range spec.GPUs {
		if g < 0 {
			writeErr(w, http.StatusBadRequest, "GPU counts must be non-negative")
			return
		}
	}
	s.mu.Lock()
	s.c = cluster.Cluster{
		TypeNames: s.c.TypeNames,
		NumGPUs:   append([]float64(nil), spec.GPUs...),
	}
	c := s.c
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"gpu_types": c.TypeNames, "gpus": c.NumGPUs, "effective_after_round": s.epoch.Load().Round,
	})
}

// drain blocks until no scheduling round is running — the graceful
// shutdown barrier: once it returns (with the ticker stopped and the HTTP
// server shut down), no round is in flight and none can start.
func (s *server) drain() {
	s.roundMu.Lock()
	//lint:ignore SA2001 acquiring roundMu is the barrier; nothing to do inside
	s.roundMu.Unlock()
}

// tick folds the batched mutations into the coordinator's registry and runs
// one round: scatter each worker's batch, gather and merge the allocations.
// A worker that fails or misses the deadline costs its clients a stale row,
// never the round. It is called by the round ticker (or POST /v1/tick).
func (s *server) tick() (*epoch, error) {
	s.roundMu.Lock()
	defer s.roundMu.Unlock()

	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.tenants = map[string]int{} // per-round quota window
	c := s.c
	s.mu.Unlock()

	for _, m := range pending {
		if m.submit != nil {
			s.coord.Upsert(*m.submit)
		} else {
			s.coord.Remove(m.remove)
		}
	}

	start := time.Now()
	jobs, alloc, err := s.coord.Allocate(c)
	if err != nil {
		// The mutations were applied; only the epoch is lost.
		return nil, err
	}
	// alloc and the stale flags are this round's own; jobs aliases the registry.
	e := &epoch{
		Round:      s.coord.Round(),
		ComputedAt: time.Now().UTC(),
		NumJobs:    len(jobs),
		StaleJobs:  s.coord.StaleJobs(),
		ids:        make([]int, len(jobs)),
		alloc:      alloc,
		stale:      s.coord.LastStale(),
		workers:    s.coord.Status(),
	}
	for i, j := range jobs {
		e.ids[i] = j.ID
	}
	e.SolveTimeMs = float64(time.Since(start).Microseconds()) / 1000
	s.epoch.Store(e)

	s.mu.Lock()
	queued := len(s.pending)
	s.mu.Unlock()
	s.reg.Counter("pop_rounds_total", "completed scheduling rounds").Inc()
	s.reg.Histogram("pop_round_seconds", "scheduling round wall time", nil).
		Observe(e.SolveTimeMs / 1000)
	s.reg.Gauge("pop_jobs", "jobs in the last completed round").Set(float64(e.NumJobs))
	s.reg.Gauge("pop_pending_mutations", "mutations queued for the next round").Set(float64(queued))
	s.log.Info("round",
		"round", e.Round, "jobs", e.NumJobs, "stale", e.StaleJobs,
		"solve_ms", e.SolveTimeMs, "applied", len(pending))
	return e, nil
}

func (s *server) handleTick(w http.ResponseWriter, _ *http.Request) {
	e, err := s.tick()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "round failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"round": e.Round, "num_jobs": e.NumJobs, "stale_jobs": e.StaleJobs,
		"solve_time_ms": e.SolveTimeMs,
	})
}

// handleAllocation renders the whole epoch, rows keyed by id string.
func (s *server) handleAllocation(w http.ResponseWriter, _ *http.Request) {
	e := s.epoch.Load()
	jobs := make(map[string]jobAlloc, len(e.ids))
	for k, id := range e.ids {
		jobs[strconv.Itoa(id)] = e.row(k)
	}
	writeJSON(w, http.StatusOK, struct {
		*epoch
		Jobs map[string]jobAlloc `json:"jobs"`
	}{e, jobs})
}

func (s *server) handleAllocationOne(w http.ResponseWriter, r *http.Request) {
	e := s.epoch.Load()
	id, err := strconv.Atoi(r.PathValue("id"))
	if k, ok := slices.BinarySearch(e.ids, id); ok && err == nil {
		writeJSON(w, http.StatusOK, e.row(k))
		return
	}
	writeErr(w, http.StatusNotFound, "job %s has no allocation (round %d)", r.PathValue("id"), e.Round)
}

// engineBlock is the in-process engine's counters (WorkerStatus.Stats holds
// its JSON) when it is of the given kind; otherwise — another kind, remote
// workers, no round yet — zero, for a stable schema.
func (s *server) engineBlock(e *epoch, kind string, zero any) any {
	if st := e.workers[0].Stats; s.engineKind == kind && st != nil {
		return st
	}
	return zero
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	e := s.epoch.Load()
	s.mu.Lock()
	pending, c := len(s.pending), s.c
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"round":          e.Round,
		"num_jobs":       e.NumJobs,
		"stale_jobs":     e.StaleJobs,
		"pending":        pending,
		"gpu_types":      c.TypeNames,
		"gpus":           c.NumGPUs,
		"engine_kind":    s.engineKind,
		// engine and price carry online.Stats' and price.Stats' JSON tags, so
		// a field added there lands here without a matching edit.
		"engine": s.engineBlock(e, "lp", online.Stats{}),
		"price":  s.engineBlock(e, "price", price.Stats{}),
		// search mirrors milp.SearchStats from the registry's counters. The
		// bundled cluster policies are pure LPs, so these stay zero unless a
		// MILP-backed policy runs with the server's observer; they are
		// included unconditionally so clients see a stable schema.
		"search": map[string]any{
			"nodes":            s.reg.Counter("pop_milp_nodes_total", "").Value(),
			"warm_nodes":       s.reg.Counter("pop_milp_warm_nodes_total", "").Value(),
			"cold_fallbacks":   s.reg.Counter("pop_milp_cold_fallbacks_total", "").Value(),
			"heuristic_solves": s.reg.Counter("pop_milp_heuristic_solves_total", "").Value(),
			"lp_pivots":        s.reg.Counter("pop_milp_lp_pivots_total", "").Value(),
			"dual_pivots":      s.reg.Counter("pop_milp_dual_pivots_total", "").Value(),
		},
		// workers is the coordinator's per-shard view: acked round, stale
		// flag, job count, and each worker's own engine counters.
		"workers": e.workers,
	})
}
