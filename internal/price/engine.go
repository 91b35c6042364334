package price

import (
	"slices"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
)

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
	// LastEnumerated counts the best responses of the most recent round,
	// summed over its iterations, that the max-min certificate could not
	// answer and support enumeration did. An enumerated response costs
	// several times a certified one, so a round slowed by near-ties or
	// demand at the time budget shows here; on a typical market it is 0.
	LastEnumerated int `json:"last_enumerated"`
	// ConvergedRounds counts rounds that reached the clearing tolerance.
	ConvergedRounds int `json:"converged_rounds"`
	// WarmPriceRounds counts rounds solved from carried prices;
	// ColdPriceRounds counts cold starts (first round, heavy churn, or
	// MarkAllDirty).
	WarmPriceRounds int `json:"warm_price_rounds"`
	ColdPriceRounds int `json:"cold_price_rounds"`
	// Arrivals, Departures, and Updates count the applied deltas.
	Arrivals   int `json:"arrivals"`
	Departures int `json:"departures"`
	Updates    int `json:"updates"`
}

// ClusterEngine maintains a price-discovery allocation for max-min GPU
// scheduling across rounds: jobs arrive, depart, and change; each
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
	// opts tunes every round's solve. WarmPrice is managed by the engine;
	// Obs also receives the engine's round telemetry ("price.round" spans,
	// round counters, round-latency histograms).
	opts Options

	c     cluster.Cluster
	haveC bool
	tab   cluster.Table
	dom   *clusterDomain // aligned with tab's committed rows; nil = rebuild

	price     []float64
	havePrice bool
	churn     int // arrivals + departures since the last solve

	stats Stats
}

// NewClusterEngine creates a price engine for cluster c whose rounds solve
// with opts.
func NewClusterEngine(c cluster.Cluster, opts Options) *ClusterEngine {
	e := &ClusterEngine{opts: withMaxMinStep(opts)}
	e.SetCluster(c)
	return e
}

func (e *ClusterEngine) obs() *obs.Observer { return e.opts.Obs }

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

// Stats returns the engine's work counters.
func (e *ClusterEngine) Stats() Stats { return e.stats }

// commit folds pending table changes in, carrying the domain's rows along,
// and returns the client rows with the domain loaded for them.
func (e *ClusterEngine) commit() []cluster.Job {
	r := e.c.NumTypes()
	all := e.dom == nil || e.dom.r != r
	if all {
		e.dom = newClusterDomain(r)
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

// solverOptions assembles the round's solve options, deciding warm vs cold
// from the membership churn accumulated since the last solve.
func (e *ClusterEngine) solverOptions(clients, resources int) (Options, bool) {
	so := e.opts
	warm := e.havePrice && len(e.price) == resources &&
		float64(e.churn) < coldChurnFrac*float64(max(clients, 1))
	if warm {
		so.WarmPrice = e.price
	} else {
		so.WarmPrice = nil
	}
	return so, warm
}

func (e *ClusterEngine) bookRound(sol *Solution, warm bool, start time.Time) {
	st := &e.stats
	st.Rounds++
	st.Iterations += sol.Iterations
	st.LastIterations = sol.Iterations
	st.LastResidual = sol.Residual
	st.LastEnumerated = sol.enumerated
	if sol.Converged {
		st.ConvergedRounds++
	}
	if warm {
		st.WarmPriceRounds++
	} else {
		st.ColdPriceRounds++
	}
	if o := e.obs(); o != nil {
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
