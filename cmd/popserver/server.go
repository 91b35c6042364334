package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
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

// snapshot is the allocation as of the last completed round, plus the
// engine counters frozen at that instant (so stats reads never have to
// touch the engine while a round is solving).
type snapshot struct {
	Round       int                 `json:"round"`
	ComputedAt  time.Time           `json:"computed_at"`
	SolveTimeMs float64             `json:"solve_time_ms"`
	NumJobs     int                 `json:"num_jobs"`
	StaleJobs   int                 `json:"stale_jobs,omitempty"`
	Jobs        map[string]jobAlloc `json:"jobs"`

	engStats   online.Stats
	priceStats price.Stats
	shardStats []shard.WorkerStatus
}

// mutation is one buffered state change (submit or remove).
type mutation struct {
	submit *cluster.Job
	remove int
}

// serverConfig selects the server's deployment shape and hardening knobs.
type serverConfig struct {
	// policy is maxmin | makespan | spacesharing | price.
	policy string
	// opts tune the in-process engine (ignored in coordinator mode, where
	// the workers own the engines).
	opts online.Options
	// workers, when non-empty, runs the server as a shard coordinator over
	// these worker base URLs instead of an in-process engine.
	workers []string
	// deadline bounds a sharded round's scatter/gather (0 = 10s).
	deadline time.Duration
	// authToken, when non-empty, is required (as a bearer token) on every
	// mutating endpoint and stamped on coordinator→worker requests.
	authToken shard.Token
	// quota caps per-tenant job submissions per round (X-Pop-Tenant header,
	// "default" when absent); exceeding it answers 429. 0 = unlimited.
	quota int
	// stateFile persists the in-process engine's warm state across restarts
	// (single-process mode only; workers have their own -state-file).
	stateFile string
}

// server batches mutations between rounds and re-solves the engine once per
// round — the per-round request batching the online engine is built for.
// mu guards only the cheap shared state (pending queue, last snapshot,
// tenant quotas), so submissions and reads never wait on a solve; engMu
// serializes rounds, which are the only engine access.
type server struct {
	cfg serverConfig

	mu      sync.Mutex
	pending []mutation
	snap    snapshot
	tenants map[string]int // submissions per tenant since the last round

	engMu sync.Mutex
	eng   shard.Engine
	// Exactly one of bundle/coord is set: bundle wraps the in-process engine
	// (with its stats/snapshot hooks), coord fans rounds out to shard
	// workers. engineKind is "lp", "price", or "sharded" for /v1/stats.
	bundle     *shard.EngineBundle
	coord      *shard.Coordinator
	engineKind string

	c       cluster.Cluster
	started time.Time

	// reg is the server's metrics registry (GET /metrics); the engine and
	// its LP sub-solves book into it through the observer installed at
	// construction. round mirrors snap.Round atomically so the request
	// middleware can stamp X-Pop-Round without taking mu.
	reg    *obs.Registry
	log    *slog.Logger
	round  atomic.Int64
	saving atomic.Bool
}

// newServer builds the daemon. With cfg.workers empty it constructs the
// policy-selected in-process engine ("maxmin", "makespan", "spacesharing"
// run the incremental LP engine, "price" the solver-free price-discovery
// engine) and, when cfg.stateFile names an existing snapshot, restores its
// warm state. With cfg.workers set it becomes a shard coordinator: clients
// are consistent-hashed onto the workers and every round is a
// scatter/gather across them.
func newServer(c cluster.Cluster, cfg serverConfig, logger *slog.Logger) (*server, error) {
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
		cfg:     cfg,
		c:       c,
		snap:    snapshot{Jobs: map[string]jobAlloc{}},
		tenants: map[string]int{},
		started: time.Now(),
		reg:     reg,
		log:     logger,
	}
	if len(cfg.workers) > 0 {
		coord, err := shard.NewCoordinator(cfg.workers, shard.CoordinatorOptions{
			Deadline: cfg.deadline,
			Token:    cfg.authToken,
			Obs:      cfg.opts.Obs,
			Log:      logger,
		})
		if err != nil {
			return nil, err
		}
		s.coord, s.eng, s.engineKind = coord, coord, "sharded"
		return s, nil
	}
	b, err := shard.NewEngine(c, shard.EngineConfig{
		Policy:    cfg.policy,
		K:         cfg.opts.K,
		Parallel:  cfg.opts.Parallel,
		Rebalance: cfg.opts.Rebalance,
		Obs:       cfg.opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	s.bundle, s.eng, s.engineKind = b, b.Engine, b.Kind
	if cfg.stateFile != "" {
		s.restoreState()
	}
	return s, nil
}

// serverState is the on-disk shape of a single-process -state-file.
type serverState struct {
	Round  int             `json:"round"`
	Engine json.RawMessage `json:"engine"`
}

func (s *server) restoreState() {
	raw, err := os.ReadFile(s.cfg.stateFile)
	if err != nil {
		if !os.IsNotExist(err) {
			s.log.Warn("state file unreadable; starting fresh", "file", s.cfg.stateFile, "err", err)
		}
		return
	}
	var st serverState
	if err := json.Unmarshal(raw, &st); err != nil {
		s.log.Warn("state file corrupt; starting fresh", "file", s.cfg.stateFile, "err", err)
		return
	}
	if err := s.bundle.Restore(st.Engine); err != nil {
		s.log.Warn("state restore rejected; starting fresh", "file", s.cfg.stateFile, "err", err)
		return
	}
	s.snap.Round = st.Round
	s.round.Store(int64(st.Round))
	s.log.Info("state restored", "file", s.cfg.stateFile, "round", st.Round, "jobs", s.eng.NumJobs())
}

// snapshotState marshals the engine state (caller holds engMu).
func (s *server) snapshotState(round int) ([]byte, error) {
	eng, err := s.bundle.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(serverState{Round: round, Engine: eng})
}

// saveStateAsync checkpoints after a round without blocking the next one:
// the snapshot is taken synchronously (cheap struct copies, caller holds
// engMu), the file write happens in the background, and at most one write
// is in flight (a newer round's state supersedes, it never queues).
func (s *server) saveStateAsync(round int) {
	if s.cfg.stateFile == "" || s.bundle == nil || !s.saving.CompareAndSwap(false, true) {
		return
	}
	st, err := s.snapshotState(round)
	if err != nil {
		s.saving.Store(false)
		s.log.Warn("state snapshot failed", "err", err)
		return
	}
	go func() {
		defer s.saving.Store(false)
		if err := writeFileAtomic(s.cfg.stateFile, st); err != nil {
			s.log.Warn("state save failed", "err", err)
		}
	}()
}

// saveState synchronously persists the engine state (shutdown barrier;
// called after drain, so no round holds the engine).
func (s *server) saveState() error {
	if s.cfg.stateFile == "" || s.bundle == nil {
		return nil
	}
	s.engMu.Lock()
	st, err := s.snapshotState(int(s.round.Load()))
	s.engMu.Unlock()
	if err != nil {
		return err
	}
	return writeFileAtomic(s.cfg.stateFile, st)
}

func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepathDir(path), ".state-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

func filepathDir(path string) string {
	if i := strings.LastIndexByte(path, os.PathSeparator); i > 0 {
		return path[:i]
	}
	return "."
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
		w.Header().Set("X-Pop-Round", strconv.FormatInt(s.round.Load(), 10))
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
	round := s.snap.Round
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"gpu_types": c.TypeNames, "gpus": c.NumGPUs, "effective_after_round": round,
	})
}

// drain blocks until no scheduling round holds the engine — the graceful
// shutdown barrier: once it returns (with the ticker stopped and the HTTP
// server shut down), no round is in flight and none can start.
func (s *server) drain() {
	s.engMu.Lock()
	//lint:ignore SA2001 acquiring engMu is the barrier; nothing to do inside
	s.engMu.Unlock()
}

// tick applies the batched mutations and re-solves the dirtied
// sub-problems (or, in coordinator mode, scatters the round over the shard
// workers and gathers their allocations). It is called by the round ticker
// (or POST /v1/tick).
func (s *server) tick() (snapshot, error) {
	s.engMu.Lock()
	defer s.engMu.Unlock()

	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.tenants = map[string]int{} // per-round quota window
	round := s.snap.Round
	c := s.c
	s.mu.Unlock()

	for _, m := range pending {
		if m.submit != nil {
			s.eng.Upsert(*m.submit)
		} else {
			s.eng.Remove(m.remove)
		}
	}

	start := time.Now()
	snap := snapshot{
		Round:      round + 1,
		ComputedAt: time.Now().UTC(),
		NumJobs:    s.eng.NumJobs(),
		Jobs:       make(map[string]jobAlloc, s.eng.NumJobs()),
	}
	if snap.NumJobs > 0 {
		// The engine holds the client set; it solves over what the
		// mutations above left in it and hands back its own id-ordered table.
		jobs, alloc, err := s.eng.Allocate(c)
		if err != nil {
			// The mutations were applied; only the snapshot is lost.
			return snapshot{}, err
		}
		var staleMask []bool
		if s.coord != nil {
			staleMask = s.coord.LastStale()
			snap.StaleJobs = s.coord.StaleJobs()
		}
		for i, j := range jobs {
			ja := jobAlloc{ID: j.ID, EffThr: alloc.EffThr[i]}
			if alloc.X != nil {
				ja.X = alloc.X[i]
			}
			if i < len(staleMask) {
				ja.Stale = staleMask[i]
			}
			snap.Jobs[strconv.Itoa(j.ID)] = ja
		}
	}
	snap.SolveTimeMs = float64(time.Since(start).Microseconds()) / 1000
	if s.bundle != nil {
		switch st := s.bundle.Stats().(type) {
		case online.Stats:
			snap.engStats = st
		case price.Stats:
			snap.priceStats = st
		}
	}
	if s.coord != nil {
		snap.shardStats = s.coord.Status()
	}

	s.mu.Lock()
	s.snap = snap
	queued := len(s.pending)
	s.mu.Unlock()
	s.round.Store(int64(snap.Round))
	s.saveStateAsync(snap.Round)

	s.reg.Counter("pop_rounds_total", "completed scheduling rounds").Inc()
	s.reg.Histogram("pop_round_seconds", "scheduling round wall time", nil).
		Observe(snap.SolveTimeMs / 1000)
	s.reg.Gauge("pop_jobs", "jobs in the last completed round").Set(float64(snap.NumJobs))
	s.reg.Gauge("pop_pending_mutations", "mutations queued for the next round").Set(float64(queued))
	s.log.Info("round",
		"round", snap.Round, "jobs", snap.NumJobs, "stale", snap.StaleJobs,
		"solve_ms", snap.SolveTimeMs, "applied", len(pending))
	return snap, nil
}

func (s *server) handleTick(w http.ResponseWriter, _ *http.Request) {
	snap, err := s.tick()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "round failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"round": snap.Round, "num_jobs": snap.NumJobs, "stale_jobs": snap.StaleJobs,
		"solve_time_ms": snap.SolveTimeMs,
	})
}

func (s *server) handleAllocation(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snap := s.snap
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

func (s *server) handleAllocationOne(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ja, ok := s.snap.Jobs[r.PathValue("id")]
	round := s.snap.Round
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "job %s has no allocation (round %d)", r.PathValue("id"), round)
		return
	}
	writeJSON(w, http.StatusOK, ja)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"round":          s.snap.Round,
		"num_jobs":       s.snap.NumJobs,
		"stale_jobs":     s.snap.StaleJobs,
		"pending":        len(s.pending),
		"gpu_types":      s.c.TypeNames,
		"gpus":           s.c.NumGPUs,
		"engine_kind":    s.engineKind,
		// engine marshals through online.Stats' JSON tags, so a field added
		// there lands here without a matching edit.
		"engine": s.snap.engStats,
		// price mirrors the price engine's counters through price.Stats' JSON
		// tags; all-zero under the LP engines, included unconditionally so
		// clients see a stable schema.
		"price": s.snap.priceStats,
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
	}
	if s.snap.shardStats != nil {
		// workers is the coordinator's per-shard view: acked round, stale
		// flag, job count, and each worker's own engine counters.
		resp["workers"] = s.snap.shardStats
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
