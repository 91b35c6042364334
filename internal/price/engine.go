package price

import (
	"fmt"
	"slices"
	"time"

	"pop/internal/cluster"
	"pop/internal/lb"
	"pop/internal/obs"
)

// EngineOptions configure an online price engine.
type EngineOptions struct {
	// Solver tunes the per-round price solve. Solver.WarmPrice is managed
	// by the engine; Solver.Obs also receives the engine's round telemetry
	// ("price.round" spans, round counters, round-latency histograms).
	Solver Options
	// NoWarmPrice disables price carrying entirely; every round solves
	// cold. Used for the cold baseline in benchmarks and the warm-vs-cold
	// property tests.
	NoWarmPrice bool
}

// coldChurnFrac is the membership-churn fraction (arrivals plus departures
// relative to the post-diff client count) at or above which a round drops
// the carried prices and solves cold — the price-engine mirror of lp.Model's
// warm-hostile basis drop. Data changes on surviving clients never trigger
// the drop: absorbing them is what the warm start is for.
const coldChurnFrac = 0.25

// Stats counts a price engine's work since creation. The JSON tags fix the
// wire names popserver's /v1/stats exposes, matching online.Stats' pattern.
type Stats struct {
	// Rounds is the number of Step calls that solved.
	Rounds int `json:"rounds"`
	// Iterations is the total price-update iterations across rounds;
	// LastIterations and LastResidual describe the most recent round.
	Iterations     int     `json:"iterations"`
	LastIterations int     `json:"last_iterations"`
	LastResidual   float64 `json:"last_residual"`
	// ConvergedRounds counts rounds that reached the clearing tolerance.
	ConvergedRounds int `json:"converged_rounds"`
	// WarmPriceRounds counts rounds solved from carried prices;
	// ColdPriceRounds counts cold starts (first round, heavy churn, or
	// NoWarmPrice).
	WarmPriceRounds int `json:"warm_price_rounds"`
	ColdPriceRounds int `json:"cold_price_rounds"`
	// Arrivals, Departures, and Updates count the applied deltas.
	Arrivals   int `json:"arrivals"`
	Departures int `json:"departures"`
	Updates    int `json:"updates"`
}

// ClusterEngine maintains a price-discovery allocation for the GPU
// scheduling policies across rounds: jobs arrive, depart, and change; each
// round re-solves the whole market from the previous round's price vector
// (cold on heavy membership churn). It exposes the same round surface as
// online.ClusterEngine so popserver and round loops can hold either. Not
// safe for concurrent use.
//
// Clients live in a persistent ascending-ID table, and the market domain —
// every client's price-independent constants — is kept aligned with it
// between rounds, so everything a round does outside the solver costs
// O(churn): Upsert and Remove edit the table, the round commits it (block
// moves, mirrored onto the domain) and recomputes the constants of new and
// changed clients only. The one invalidation rule: max-min constants are
// normalized by the equal-share row, so when that row moves (total scale or
// capacity changed) every client is recomputed.
type ClusterEngine struct {
	policy ClusterPolicy
	opts   EngineOptions

	c     cluster.Cluster
	haveC bool
	tab   cluster.Table
	dom   *clusterDomain // aligned with tab's committed rows; nil = rebuild

	price     []float64
	havePrice bool
	churn     int // arrivals + departures since the last solve

	lastObj float64
	stats   Stats
}

// NewClusterEngine creates a price engine for cluster c running the given
// policy.
func NewClusterEngine(c cluster.Cluster, policy ClusterPolicy, opts EngineOptions) (*ClusterEngine, error) {
	if policy != MaxMinFairness && policy != ProportionalFairness {
		return nil, fmt.Errorf("price: unsupported cluster policy %v", policy)
	}
	if policy == MaxMinFairness {
		opts.Solver = withMaxMinStep(opts.Solver)
	}
	e := &ClusterEngine{policy: policy, opts: opts}
	e.SetCluster(c)
	return e, nil
}

func (e *ClusterEngine) obs() *obs.Observer { return e.opts.Solver.Obs }

// SetCluster installs a new resource pool. Carried prices are rescaled by
// the inverse capacity change per type (scarcer capacity means a
// proportionally higher clearing price); a reshaped or zeroed pool drops
// them.
func (e *ClusterEngine) SetCluster(c cluster.Cluster) {
	if e.haveC && slices.Equal(e.c.NumGPUs, c.NumGPUs) {
		return
	}
	if e.havePrice {
		if len(c.NumGPUs) != len(e.c.NumGPUs) {
			e.havePrice = false
		} else {
			for i, old := range e.c.NumGPUs {
				if old <= 0 || c.NumGPUs[i] <= 0 {
					e.havePrice = false
					break
				}
				e.price[i] *= old / c.NumGPUs[i]
			}
		}
	}
	e.c = c
	e.haveC = true
}

// Upsert adds job j (keyed by j.ID) or applies a change to it. Unchanged
// re-submissions are no-ops.
func (e *ClusterEngine) Upsert(j cluster.Job) {
	switch e.tab.Upsert(j) {
	case cluster.Arrived:
		e.stats.Arrivals++
		e.churn++
	case cluster.Updated:
		e.stats.Updates++
	}
}

// Remove drops the job.
func (e *ClusterEngine) Remove(id int) bool {
	if !e.tab.Remove(id) {
		return false
	}
	e.stats.Departures++
	e.churn++
	return true
}

// MarkAllDirty drops the carried prices, forcing the next round to solve
// cold (benchmark and testing hook, mirroring the LP engines' full
// re-solve trigger).
func (e *ClusterEngine) MarkAllDirty() { e.havePrice = false }

// NumJobs reports the number of jobs currently held.
func (e *ClusterEngine) NumJobs() int { return e.tab.Len() }

// Jobs returns a copy of the live jobs in ascending-ID order.
func (e *ClusterEngine) Jobs() []cluster.Job { return slices.Clone(e.commit()) }

// Cluster returns the current resource pool.
func (e *ClusterEngine) Cluster() cluster.Cluster { return e.c }

// Stats returns the engine's work counters.
func (e *ClusterEngine) Stats() Stats { return e.stats }

// Objective reports the policy objective of the last round: the minimum
// normalized ratio under max-min fairness, Σ w·log(thr) under proportional
// fairness.
func (e *ClusterEngine) Objective() float64 { return e.lastObj }

// commit folds pending table changes in, carrying the domain's rows along,
// and returns the client rows with the domain loaded for them.
func (e *ClusterEngine) commit() []cluster.Job {
	r := e.c.NumTypes()
	all := e.dom == nil || e.dom.r != r
	if all {
		alpha := 0.0
		if e.policy == MaxMinFairness {
			alpha = maxMinAlpha
		}
		e.dom = newClusterDomain(r, alpha)
	}
	e.dom.resize(max(e.dom.n, e.tab.Len()))
	fresh := e.tab.Commit(e.dom.move)
	jobs := e.tab.Jobs()
	e.dom.resize(len(jobs))
	e.dom.load(jobs, e.c, fresh, all)
	return jobs
}

// Allocate solves the market over the engine's own client set — whatever
// Upsert and Remove have left in it — warm from the previous round's prices
// (cold on heavy churn). It returns the clients in ascending-ID order with
// the allocation aligned to them; the job slice aliases the engine's table
// and is valid until the next Upsert or Remove.
func (e *ClusterEngine) Allocate(c cluster.Cluster) ([]cluster.Job, *cluster.Allocation, error) {
	span := e.obs().Span("price.round").Arg("clients", e.tab.Len())
	defer span.End()
	start := time.Now()

	e.SetCluster(c)
	jobs := e.commit()
	so, warm := e.solverOptions(len(jobs), e.c.NumTypes())
	sol, err := Solve(e.dom, so)
	if err != nil {
		return nil, nil, err
	}
	alloc := clusterAllocation(jobs, e.c, sol)
	e.price = sol.Price
	e.havePrice = true
	e.churn = 0
	e.bookRound(sol, warm, start)

	if e.policy == ProportionalFairness {
		e.lastObj = cluster.LogUtility(jobs, alloc)
	} else {
		e.lastObj = MaxMinObjective(jobs, e.c, alloc)
	}
	span.Arg("warm", warm).Arg("iterations", sol.Iterations)
	return jobs, alloc, nil
}

// Step is Allocate for callers that hold the population themselves: it diffs
// the active set into the engine, runs the round, and returns the
// allocation in active-set order.
func (e *ClusterEngine) Step(active []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
	ordered := e.tab.Reconcile(active, e.Upsert, e.Remove)
	jobs, alloc, err := e.Allocate(c)
	if err != nil || ordered {
		return alloc, err
	}
	return alloc.InOrder(jobs, active), nil
}

// Policy adapts the engine to gavelsim's round loop, like
// online.ClusterEngine.Policy.
func (e *ClusterEngine) Policy() func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
	return func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
		return e.Step(jobs, c)
	}
}

// solverOptions assembles the round's solve options, deciding warm vs cold
// from the membership churn accumulated since the last solve.
func (e *ClusterEngine) solverOptions(clients, resources int) (Options, bool) {
	so := e.opts.Solver
	warm := e.havePrice && !e.opts.NoWarmPrice && len(e.price) == resources &&
		float64(e.churn) < coldChurnFrac*float64(max(clients, 1))
	if warm {
		so.WarmPrice = e.price
	} else {
		so.WarmPrice = nil
	}
	return so, warm
}

func (e *ClusterEngine) bookRound(sol *Solution, warm bool, start time.Time) {
	bookRound(&e.stats, e.obs(), sol, warm, start)
}

func bookRound(st *Stats, o *obs.Observer, sol *Solution, warm bool, start time.Time) {
	st.Rounds++
	st.Iterations += sol.Iterations
	st.LastIterations = sol.Iterations
	st.LastResidual = sol.Residual
	if sol.Converged {
		st.ConvergedRounds++
	}
	if warm {
		st.WarmPriceRounds++
	} else {
		st.ColdPriceRounds++
	}
	if o != nil {
		o.Counter("pop_price_rounds_total", "price-engine rounds").Inc()
		if warm {
			o.Counter("pop_price_warm_rounds_total", "rounds solved from carried prices").Inc()
		} else {
			o.Counter("pop_price_cold_rounds_total", "rounds solved from cold prices").Inc()
		}
		o.Histogram("pop_price_round_seconds", "price-engine round latency").
			Observe(time.Since(start).Seconds())
	}
}

// LBEngine maintains a price-discovery shard-balancing assignment across
// rounds, carrying server prices between Steps. Load jitter on surviving
// shards rides the warm start (relative excess demand is what prices
// clear); only membership churn or a server-set change drops the prices.
// Not safe for concurrent use.
type LBEngine struct {
	opts EngineOptions

	servers []lb.Server
	shards  map[int]lb.Shard

	price     []float64
	havePrice bool
	churn     int

	lastObj float64
	stats   Stats
}

// NewLBEngine creates a price-discovery shard-balancing engine.
func NewLBEngine(opts EngineOptions) (*LBEngine, error) {
	return &LBEngine{
		opts:   opts,
		shards: make(map[int]lb.Shard),
	}, nil
}

func (e *LBEngine) obs() *obs.Observer { return e.opts.Solver.Obs }

// Stats returns the engine's work counters.
func (e *LBEngine) Stats() Stats { return e.stats }

// MarkAllDirty drops the carried prices (cold next round).
func (e *LBEngine) MarkAllDirty() { e.havePrice = false }

// Objective reports the moved bytes of the last Step's assignment.
func (e *LBEngine) Objective() float64 { return e.lastObj }

// Step diffs the instance against engine state, solves the server market
// warm from the previous round's prices, and returns the assignment. It has
// lb.Solver's shape via Solver.
func (e *LBEngine) Step(inst *lb.Instance) (*lb.Assignment, error) {
	if len(inst.Shards) == 0 || len(inst.Servers) == 0 {
		return nil, fmt.Errorf("price: empty instance")
	}
	span := e.obs().Span("price.round").Arg("clients", len(inst.Shards))
	defer span.End()
	start := time.Now()

	if !slices.Equal(e.servers, inst.Servers) {
		e.servers = append([]lb.Server(nil), inst.Servers...)
		e.havePrice = false
	}
	seen := make(map[int]bool, len(inst.Shards))
	for _, s := range inst.Shards {
		seen[s.ID] = true
		old, ok := e.shards[s.ID]
		e.shards[s.ID] = s
		switch {
		case !ok:
			e.stats.Arrivals++
			e.churn++
		case old.Load != s.Load || old.Mem != s.Mem:
			e.stats.Updates++
		}
	}
	for id := range e.shards {
		if !seen[id] {
			delete(e.shards, id)
			e.stats.Departures++
			e.churn++
		}
	}

	so := e.opts.Solver
	warm := e.havePrice && !e.opts.NoWarmPrice && len(e.price) == len(inst.Servers) &&
		float64(e.churn) < coldChurnFrac*float64(max(len(inst.Shards), 1))
	if warm {
		so.WarmPrice = e.price
	} else {
		so.WarmPrice = nil
	}
	a, sol, err := SolveLB(inst, so)
	if err != nil {
		return nil, err
	}
	e.price = sol.Price
	e.havePrice = true
	e.churn = 0
	bookRound(&e.stats, e.obs(), sol, warm, start)
	e.lastObj = a.MovedBytes
	span.Arg("warm", warm).Arg("iterations", sol.Iterations)
	return a, nil
}

// Solver adapts the engine to lb.RunRounds' round loop.
func (e *LBEngine) Solver() lb.Solver {
	return func(inst *lb.Instance) (*lb.Assignment, error) { return e.Step(inst) }
}
