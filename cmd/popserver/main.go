// Command popserver is a long-running allocation daemon on top of the
// online incremental engine (internal/online): clients submit and remove
// jobs over HTTP, mutations are batched per scheduling round, and each
// round re-solves only the dirtied POP sub-problems from their live LP
// models — capacity changes ride the dual simplex, data changes the primal
// warm path.
//
// popserver is a coordinator (internal/shard); -workers decides whether its
// workers are remote. Without it the daemon coordinates one worker inside
// its own process; with it, clients are spread over shard-worker processes
// (the `worker` subcommand) by jump consistent hash of their ids. The round is the same code either
// way: each worker gets its mutations in ascending-id order and 1/W of the
// pool, and the allocations are gathered under a deadline. A worker that
// misses it — or whose engine fails, in process or not — costs its clients
// freshness, not the round: the tick answers 200, their rows flagged "stale"
// (stale_jobs counts them), the batch still queued. Crashed worker processes
// are rebuilt from the coordinator's client registry.
//
//	popserver worker -shard-addr :9001 [-policy ... -k ... -auth-token ... -state-file ...]
//	popserver -workers http://host:9001,http://host:9002 [-shard-deadline 10s] [-auth-token ...]
//
// Endpoints:
//
//	POST   /v1/jobs            submit or update a job, or a JSON array of jobs (batched until the next round)
//	DELETE /v1/jobs/{id}       remove a job (batched)
//	PUT    /v1/cluster         install new per-type GPU capacities (next round)
//	POST   /v1/tick            force a scheduling round now
//	GET    /v1/allocation      full allocation snapshot of the last round
//	GET    /v1/allocation/{id} one job's allocation
//	GET    /v1/stats           engine and server counters
//	GET    /healthz            liveness
//
// Hardening: -auth-token requires a shared bearer token on every mutating
// endpoint (and stamps coordinator→worker calls); -quota caps per-tenant
// (X-Pop-Tenant header) submissions per round, answering 429 beyond it;
// -state-file persists a worker's warm state (clients, partitions, bases,
// prices) across restarts — the in-process worker's or a `worker` process's.
//
// Observability: GET /metrics serves the server's counters, gauges, and
// latency histograms (round latency, warm/cold sub-solve counters, LP pivot
// totals, shard straggler/rebuild counters, per-endpoint request latency)
// in Prometheus text format. An opt-in -debug-addr starts a second listener
// exposing net/http/pprof under /debug/pprof/ plus the same /metrics.
// Logging is structured (log/slog, text to stderr); -log-level picks
// debug|info|warn|error, with per-request lines at debug and per-round
// lines at info.
//
// Usage:
//
//	popserver [-addr :8080] [-gpus 32,32,32] [-k 8] [-round 2s] [-policy maxmin|price] [-rebalance]
//	          [-workers url,url] [-shard-deadline 10s] [-auth-token t] [-quota n] [-state-file f]
//	          [-log-level info] [-debug-addr :6060]
//
// -policy selects maxmin, makespan, spacesharing (pair slots for single-GPU
// jobs, solved online from the pair-block layout), or price — the solver-free
// price-discovery engine (internal/price): per-round parallel best responses
// with warm-started prices, no LP.
//
// With -round 0 no ticker runs and rounds happen only via POST /v1/tick.
//
// On SIGINT/SIGTERM the server stops accepting requests, drains in-flight
// handlers and the round in progress, saves -state-file, and exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
	"pop/internal/shard"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "popserver worker:", err)
			os.Exit(1)
		}
		return
	}
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		gpus      = flag.String("gpus", "32,32,32", "comma-separated GPU counts for K80,P100,V100")
		k         = flag.Int("k", 8, "number of POP sub-problems")
		round     = flag.Duration("round", 2*time.Second, "scheduling round length (0 = manual ticks only)")
		policyFl  = flag.String("policy", "maxmin", "scheduling policy: maxmin | makespan | spacesharing | price")
		parallel  = flag.Bool("parallel", true, "solve dirty sub-problems concurrently")
		rebalance = flag.Bool("rebalance", false, "move ≤1 job per round toward the least-loaded sub-problem")
		workers   = flag.String("workers", "", "comma-separated shard-worker base URLs (default: one worker in this process)")
		deadline  = flag.Duration("shard-deadline", 10*time.Second, "per-round scatter/gather deadline")
		authTok   = flag.String("auth-token", "", "bearer token required on mutating endpoints and used for worker calls")
		quota     = flag.Int("quota", 0, "max job submissions per tenant per round (0 = unlimited)")
		stateFile = flag.String("state-file", "", "persist the in-process worker's warm state here across restarts")
		logLevel  = flag.String("log-level", "info", "log level: debug | info | warn | error")
		debugAddr = flag.String("debug-addr", "", "optional second listener serving /debug/pprof/ and /metrics")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "popserver:", err)
		os.Exit(2)
	}

	c, err := parseCluster(*gpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "popserver:", err)
		os.Exit(2)
	}
	cfg := serverConfig{
		engine:    shard.EngineConfig{Policy: *policyFl, K: *k, Parallel: *parallel, Rebalance: *rebalance},
		deadline:  *deadline,
		authToken: shard.Token(*authTok),
		quota:     *quota,
		stateFile: *stateFile,
	}
	if *workers != "" {
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.workers = append(cfg.workers, strings.TrimSuffix(u, "/"))
			}
		}
	}
	srv, err := newServer(c, cfg, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "popserver:", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "popserver:", err)
		os.Exit(2)
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "popserver:", err)
			os.Exit(2)
		}
		defer dln.Close()
		go func() { _ = http.Serve(dln, debugHandler(srv)) }()
		logger.Info("debug listener up", "addr", dln.Addr().String())
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	logger.Info("popserver listening",
		"addr", ln.Addr().String(), "policy", strings.ToLower(*policyFl), "k", *k,
		"mode", srv.engineKind, "workers", len(cfg.workers),
		"gpu_types", c.TypeNames, "gpus", c.NumGPUs, "round", *round)
	if err := run(ctx, ln, srv, *round); err != nil {
		logger.Error("popserver failed", "err", err)
		os.Exit(1)
	}
	if err := srv.saveState(); err != nil {
		logger.Warn("final state save failed", "err", err)
	}
	logger.Info("drained and stopped")
}

func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// workerMain runs the shard-worker subcommand: one policy engine owned by
// this process, serving the coordinator protocol (internal/shard) until
// SIGINT/SIGTERM, with its warm state checkpointed to -state-file.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("popserver worker", flag.ExitOnError)
	var (
		addr      = fs.String("shard-addr", ":9001", "listen address for the coordinator protocol")
		gpus      = fs.String("gpus", "32,32,32", "initial GPU counts (each round carries its own capacities)")
		k         = fs.Int("k", 1, "POP sub-problems inside this worker's engine")
		policyFl  = fs.String("policy", "maxmin", "scheduling policy: maxmin | makespan | spacesharing | price")
		parallel  = fs.Bool("parallel", true, "solve dirty sub-problems concurrently")
		rebalance = fs.Bool("rebalance", false, "enable the engine's drift-bounded rebalancer")
		authTok   = fs.String("auth-token", "", "bearer token required on round requests")
		stateFile = fs.String("state-file", "", "persist engine warm state here across restarts")
		logLevel  = fs.String("log-level", "info", "log level: debug | info | warn | error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	c, err := parseCluster(*gpus)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	o := &obs.Observer{Metrics: reg}
	b, err := shard.NewEngine(c, shard.EngineConfig{
		Policy: *policyFl, K: *k, Parallel: *parallel, Rebalance: *rebalance, Obs: o,
	})
	if err != nil {
		return err
	}
	w := shard.NewWorker(b, shard.WorkerOptions{
		Token:     shard.Token(*authTok),
		StateFile: *stateFile,
		Obs:       o,
		Log:       logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	logger.Info("shard worker listening",
		"addr", ln.Addr().String(), "policy", strings.ToLower(*policyFl), "k", *k,
		"kind", b.Kind, "round", w.LastRound())

	hs := &http.Server{Handler: w.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = hs.Shutdown(shutdownCtx)
	if saveErr := w.SaveState(); saveErr != nil {
		logger.Warn("final state save failed", "err", saveErr)
	}
	if serr := <-serveErr; serr != nil && serr != http.ErrServerClosed {
		return serr
	}
	logger.Info("worker drained and stopped")
	return err
}

// debugHandler is the opt-in -debug-addr surface: the pprof index and
// profile endpoints (registered explicitly — the servers use private muxes,
// so the net/http/pprof DefaultServeMux side effects never leak into the
// API listener) plus the metrics exposition for scrapes that should not
// touch the serving port.
func debugHandler(s *server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// run serves HTTP on ln until ctx is cancelled, then shuts down gracefully:
// the listener closes, in-flight handlers get shutdownGrace to finish, the
// round ticker stops, and the round in progress (if any) is drained before
// run returns. With round > 0 a ticker drives scheduling rounds; otherwise
// rounds happen only via POST /v1/tick.
func run(ctx context.Context, ln net.Listener, s *server, round time.Duration) error {
	const shutdownGrace = 10 * time.Second

	hs := &http.Server{Handler: s.handler()}
	tickerDone := make(chan struct{})
	tickerCtx, stopTicker := context.WithCancel(ctx)
	defer stopTicker()
	go func() {
		defer close(tickerDone)
		if round <= 0 {
			return
		}
		tick := time.NewTicker(round)
		defer tick.Stop()
		for {
			select {
			case <-tickerCtx.Done():
				return
			case <-tick.C:
				if _, err := s.tick(); err != nil {
					s.log.Error("round failed", "err", err)
				}
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopTicker()
		<-tickerDone
		return err
	case <-ctx.Done():
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := hs.Shutdown(shutdownCtx) // stop accepting; drain in-flight handlers
	stopTicker()
	<-tickerDone // the ticker goroutine finishes its round before exiting
	s.drain()    // and any round still holding the engine completes
	if serr := <-serveErr; serr != nil && serr != http.ErrServerClosed {
		return serr
	}
	return err
}

func parseCluster(spec string) (cluster.Cluster, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return cluster.Cluster{}, fmt.Errorf("-gpus wants three comma-separated counts, got %q", spec)
	}
	counts := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return cluster.Cluster{}, fmt.Errorf("bad GPU count %q", p)
		}
		counts[i] = v
	}
	return cluster.NewCluster(counts[0], counts[1], counts[2]), nil
}
