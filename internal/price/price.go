package price

import (
	"fmt"
	"math"
	"math/rand"

	"pop/internal/core"
	"pop/internal/obs"
)

const (
	// chunkSize is the fixed per-task client count of the best-response
	// fan-out. Fixed-size chunks (rather than one task per worker) keep the
	// floating-point reduction order independent of GOMAXPROCS: partial
	// demands are accumulated per chunk and summed in chunk order.
	chunkSize = 1024
	// warmStepOffset inflates the step-decay clock of a warm-started solve:
	// prices that start near equilibrium want small corrective steps from
	// the first iteration, not the large exploratory steps of a cold start.
	// The offset is large because the low-elasticity alpha-fair market is
	// easy to destabilize: a half-size kick to near-equilibrium prices sets
	// off a bang-bang oscillation that costs ~100 iterations of averaging to
	// forget, where quarter-size corrective steps track a low-churn market
	// shift in a handful.
	warmStepOffset = 100
	// priceFloorFrac and priceCeilFrac bound prices relative to their
	// cold-start scale, keeping the multiplicative update away from zero and
	// overflow on resources that stay under- or over-demanded. The band is
	// deliberately vast: alpha-fair marginal utilities scale as u^-α, so with
	// α = 32 a market whose min ratio sits near 0.4 clears at prices ~1e13×
	// the demand-based seed — a tight ceiling silently caps the price walk
	// and freezes the residual above tolerance.
	priceFloorFrac = 1e-18
	priceCeilFrac  = 1e18
	capFloor       = 1e-9
	// scaleKappa and scaleStepClip tune the common-mode damped-Newton price
	// rescale (see scaleElastic): each iteration the whole price vector is
	// multiplied by exp(clip(scaleKappa·E·mean(log(demand/cap)), ±scaleStepClip)).
	// Half-damping absorbs the elasticity error of capped and pair-assigned
	// clients; the ±2 clip bounds a cold start's climb to ~e² per iteration.
	scaleKappa    = 0.5
	scaleStepClip = 2.0
	scaleLogClip  = 4.0
	// avgPow is the polynomial-averaging order: iterate t enters the running
	// primal average with weight ∝ t^avgPow. Order 8 forgets the cold-start
	// transient roughly 4× faster than plain t-weighting while still damping
	// the bang-bang oscillation of low-elasticity best responses.
	avgPow = 8.0
	// minIters is the iteration count before convergence may be declared (a
	// guard against a lucky first-iterate residual); clearTol is the clearing
	// tolerance, the averaged market's complementarity residual at which a
	// solve stops, of a market that does not bring its own (see
	// Options.tol). defaultStep is the initial multiplicative price-update
	// step of a market that does not bring its own (see Options.step).
	minIters    = 4
	clearTol    = 0.01
	defaultStep = 0.5
)

// Domain is the market a price-discovery solve runs over: clients demand
// bundles of divisible resources, and the solver searches for per-resource
// prices under which aggregate demand clears capacity.
type Domain interface {
	// Dims returns the number of clients and resources.
	Dims() (clients, resources int)
	// Capacity writes the per-resource capacities into out (len resources).
	Capacity(out []float64)
	// DemandHint returns the aggregate demand scale — roughly the total
	// resource units clients would consume at zero price — used to seed
	// cold-start prices.
	DemandHint() float64
	// BestResponse writes client j's utility-maximizing demand (in resource
	// units) under the given prices into out (len resources). It must be
	// deterministic in (j, price) and safe for concurrent calls with
	// distinct j: the solver fans calls out over core.ParallelMap.
	BestResponse(j int, price []float64, out []float64)
}

// iterationPreparer is an optional Domain extension: PrepareIteration runs
// single-threaded once per iteration before the best-response fan-out, so a
// domain can hoist price-dependent work (e.g. price^(−1/α) roots) out of
// the per-client hot path.
type iterationPreparer interface {
	PrepareIteration(price []float64)
}

// scaleElastic is an optional Domain extension: a market whose aggregate
// demand responds to a uniform price rescale with a known elasticity —
// demand ∝ scale^(−1/E) in the interior — exposes E, and Solve then kills
// the common-mode excess with a damped Newton rescale each iteration. A
// uniform rescale leaves relative prices, and therefore every client's
// resource choice, unchanged — so unlike the per-resource tâtonnement
// step it cannot set off the bang-bang choice-flipping oscillation, and
// may move orders of magnitude per iteration. Low-elasticity markets
// (alpha-fair with large α) need this: their clearing prices sit ~E×
// further (in log space) than the demand residual suggests, which the
// small per-resource steps would take hundreds of iterations to traverse.
type scaleElastic interface {
	ScaleElasticity() float64
}

// Options tune a price-discovery solve.
type Options struct {
	// MaxIters bounds price-update iterations; 0 means 1200.
	MaxIters int
	// Seed fixes the deterministic cold-price jitter. Identical inputs,
	// Seed, and WarmPrice produce bit-identical output regardless of
	// Parallel.
	Seed int64
	// Parallel fans best responses out over core.ParallelMap.
	Parallel bool
	// WarmPrice, when non-nil with one finite positive entry per resource,
	// replaces the cold price seed — the cross-round warm start. A vector
	// of the wrong shape is ignored (cold start), never an error.
	WarmPrice []float64
	// Obs, when non-nil, receives a "price.solve" span with per-iteration
	// "price.bestresponse" children, iteration counters, and the clearing
	// residual gauge. Nil costs one pointer check per use.
	Obs *obs.Observer

	// step is the initial multiplicative price-update step, set by the
	// max-min market's entry points (withMaxMinStep scales it with the
	// exponent); 0 means defaultStep.
	step float64
	// tol is the clearing tolerance, set by the proportional-fairness
	// market's entry point (propFairTol); 0 means clearTol.
	tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 1200
	}
	if o.step == 0 {
		o.step = defaultStep
	}
	if o.tol == 0 {
		o.tol = clearTol
	}
	return o
}

// Solution is the result of a price-discovery solve: the averaged client
// demands, the final prices (the warm start for the next round), and the
// convergence accounting.
type Solution struct {
	// Price is the final per-resource price vector.
	Price []float64
	// Iterations is the number of price updates taken.
	Iterations int
	// Residual is the clearing residual of the averaged market at exit.
	Residual float64
	// Converged reports whether Residual reached the market's clearing
	// tolerance within MaxIters.
	Converged bool
	// WarmStarted reports whether the solve started from WarmPrice.
	WarmStarted bool

	n, r   int
	demand []float64 // n×r row-major averaged client demands (resource units)
}

// ClientDemand returns client j's averaged demand row (resource units). The
// slice aliases solver-owned memory; callers must not retain or mutate it.
func (s *Solution) ClientDemand(j int) []float64 {
	return s.demand[j*s.r : (j+1)*s.r]
}

// AggregateDemand sums the averaged client demands per resource.
func (s *Solution) AggregateDemand() []float64 {
	out := make([]float64, s.r)
	for j := 0; j < s.n; j++ {
		for i, v := range s.ClientDemand(j) {
			out[i] += v
		}
	}
	return out
}

// Solve runs tâtonnement price discovery over the domain: each iteration
// fans the per-client best responses out over core.ParallelMap, folds the
// iterate into a polynomially weighted running average, and moves every
// price multiplicatively against its relative excess demand with a
// diminishing step. The averaged market's complementarity residual is the
// clearing measure; the solve stops when it reaches the market's tolerance
// (clearTol unless the market sets its own) or MaxIters runs out (Converged
// reports which).
func Solve(d Domain, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	n, r := d.Dims()
	if n < 0 || r <= 0 {
		return nil, fmt.Errorf("price: bad dimensions %d clients × %d resources", n, r)
	}
	capacity := make([]float64, r)
	d.Capacity(capacity)
	for i, c := range capacity {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("price: bad capacity[%d] = %g", i, c)
		}
	}

	// Cold reference prices: uniform demand pressure, hint/(cap·r) per
	// resource. A warm solve keeps them as the scale anchor of the price
	// floor/ceiling and the residual's underdemand weight.
	hint := d.DemandHint()
	if hint <= 0 || math.IsNaN(hint) || math.IsInf(hint, 0) {
		hint = 1
	}
	p0 := make([]float64, r)
	for i := range p0 {
		p0[i] = hint / (math.Max(capacity[i], capFloor) * float64(r))
	}

	price := make([]float64, r)
	warm := len(opts.WarmPrice) == r
	if warm {
		for _, p := range opts.WarmPrice {
			if !(p > 0) || math.IsInf(p, 0) {
				warm = false
				break
			}
		}
	}
	if warm {
		copy(price, opts.WarmPrice)
	} else {
		// Deterministic per-seed jitter breaks exact price ties between
		// resources, which would otherwise make pair best responses
		// degenerate on symmetric instances.
		rng := rand.New(rand.NewSource(opts.Seed))
		for i := range price {
			price[i] = p0[i] * (1 + 1e-3*rng.Float64())
		}
	}

	sol := &Solution{
		Price:       price,
		WarmStarted: warm,
		n:           n,
		r:           r,
		demand:      make([]float64, n*r),
	}
	if n == 0 {
		sol.Converged = true
		return sol, nil
	}

	span := opts.Obs.Span("price.solve").
		Arg("clients", n).Arg("resources", r).Arg("warm", warm)

	t0 := 1.0
	if warm {
		t0 = warmStepOffset
	}
	chunks := (n + chunkSize - 1) / chunkSize
	cur := make([]float64, n*r)
	avg := sol.demand
	chunkDemand := make([][]float64, chunks)
	for ci := range chunkDemand {
		chunkDemand[ci] = make([]float64, r)
	}
	demand := make([]float64, r)
	avgDemand := make([]float64, r)

	prep, _ := d.(iterationPreparer)
	elast := 0.0
	if se, ok := d.(scaleElastic); ok {
		elast = se.ScaleElasticity()
	}

	iters := 0
	resid := math.Inf(1)
	converged := false
	for t := 1; t <= opts.MaxIters; t++ {
		iters = t
		if prep != nil {
			prep.PrepareIteration(price)
		}
		brSpan := opts.Obs.Span("price.bestresponse").Arg("iter", t)
		_ = core.ParallelMap(chunks, opts.Parallel && chunks > 1, func(ci int) error {
			lo := ci * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			acc := chunkDemand[ci]
			for i := range acc {
				acc[i] = 0
			}
			for j := lo; j < hi; j++ {
				row := cur[j*r : (j+1)*r]
				d.BestResponse(j, price, row)
				for i, v := range row {
					acc[i] += v
				}
			}
			return nil
		})
		brSpan.End()
		// Chunk-ordered reduction: bit-identical regardless of Parallel.
		for i := range demand {
			demand[i] = 0
		}
		for ci := 0; ci < chunks; ci++ {
			for i, v := range chunkDemand[ci] {
				demand[i] += v
			}
		}

		// Polynomial averaging (iterate t gets weight ∝ t^avgPow): late,
		// well-priced iterates dominate and the cold-start transient is
		// forgotten quickly, without a warm-hostile restart of the average.
		gamma := (avgPow + 1) / (float64(t) + avgPow + 1)
		for idx, v := range cur {
			avg[idx] += gamma * (v - avg[idx])
		}
		for i, v := range demand {
			avgDemand[i] += gamma * (v - avgDemand[i])
		}

		resid = clearingResidual(avgDemand, capacity, price, p0)
		if t >= minIters && resid <= opts.tol {
			converged = true
			break
		}

		// Common-mode damped Newton rescale (scaleElastic domains): the
		// mean log overdemand is the uniform component of the imbalance,
		// and demand ∝ scale^(−1/E) under a uniform rescale, so one
		// half-damped step of exp(½·E·mean(log(demand/cap))) removes most
		// of it at once — the per-resource steps below only ever chase the
		// small relative imbalance.
		scale := 1.0
		if elast > 0 {
			zbar := 0.0
			for i := range demand {
				zi := math.Log(math.Max(demand[i], capFloor) / math.Max(capacity[i], capFloor))
				if zi > scaleLogClip {
					zi = scaleLogClip
				} else if zi < -scaleLogClip {
					zi = -scaleLogClip
				}
				if zi < 0 {
					// Mirror clearingResidual: idle capacity only counts as
					// imbalance while its price sits meaningfully above the
					// cold scale p0 — a legitimately unwanted resource must
					// not drag every other price down with it.
					zi *= price[i] / (price[i] + p0[i])
				}
				zbar += zi
			}
			zbar /= float64(r)
			step := scaleKappa * elast * zbar
			if step > scaleStepClip {
				step = scaleStepClip
			} else if step < -scaleStepClip {
				step = -scaleStepClip
			}
			scale = math.Exp(step)
		}

		// Multiplicative tâtonnement on the instantaneous market: price_i
		// moves by exp(η_t · clip(relative excess demand)), η_t diminishing.
		eta := opts.step / math.Sqrt(t0+float64(t))
		for i := range price {
			z := (demand[i] - capacity[i]) / math.Max(capacity[i], capFloor)
			if z > 1 {
				z = 1
			} else if z < -1 {
				z = -1
			}
			p := price[i] * scale * math.Exp(eta*z)
			if floor := priceFloorFrac * p0[i]; p < floor {
				p = floor
			}
			if ceil := priceCeilFrac * p0[i]; p > ceil {
				p = ceil
			}
			price[i] = p
		}
	}

	sol.Iterations = iters
	sol.Residual = resid
	sol.Converged = converged
	span.Arg("iterations", iters).Arg("residual", resid).End()
	if o := opts.Obs; o != nil {
		o.Counter("pop_price_solves_total", "price-discovery solves").Inc()
		o.Counter("pop_price_iterations_total", "price-update iterations across solves").Add(int64(iters))
		if warm {
			o.Counter("pop_price_warm_solves_total", "solves started from carried prices").Inc()
		} else {
			o.Counter("pop_price_cold_solves_total", "solves started from cold prices").Inc()
		}
		if converged {
			o.Counter("pop_price_converged_total", "solves that reached the clearing tolerance").Inc()
		}
		o.Gauge("pop_price_clearing_residual", "clearing residual of the last solve").Set(resid)
	}
	return sol, nil
}

// clearingResidual measures how far the averaged market is from clearing:
// the worst relative overdemand, or — on underdemanded resources — the
// complementarity violation, the relative idle capacity weighted by how far
// the price still sits above its floor scale (an idle resource only
// violates clearing while its price is meaningfully positive).
func clearingResidual(avgDemand, capacity, price, p0 []float64) float64 {
	resid := 0.0
	for i := range capacity {
		excess := (avgDemand[i] - capacity[i]) / math.Max(capacity[i], capFloor)
		v := excess
		if excess < 0 {
			w := price[i] / (price[i] + p0[i])
			v = math.Min(-excess, 1) * w
		}
		if v > resid {
			resid = v
		}
	}
	return resid
}
