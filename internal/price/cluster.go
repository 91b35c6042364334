package price

import (
	"fmt"
	"math"
	"slices"

	"pop/internal/cluster"
)

// ClusterPolicy selects which §4.1 scheduling objective a cluster-domain
// price solve approximates.
type ClusterPolicy int8

const (
	// MaxMinFairness approximates the heterogeneity-aware least-attained-
	// service policy through an alpha-fair utility (exponent maxMinAlpha)
	// over the normalized throughput ratios.
	MaxMinFairness ClusterPolicy = iota
	// ProportionalFairness is the §4.1 sum-of-logs policy, solved exactly
	// in the limit (log utility is the Eisenberg-Gale market).
	ProportionalFairness
)

func (p ClusterPolicy) String() string {
	switch p {
	case MaxMinFairness:
		return "max-min-fairness"
	case ProportionalFairness:
		return "proportional-fairness"
	}
	return fmt.Sprintf("ClusterPolicy(%d)", int8(p))
}

// clusterDomain prices the GPU-type capacities: client j's best response
// maximizes φ(Σ_i t_ji·x_i) − Σ_i z_j·price_i·x_i over Σ_i x_i ≤ 1, x ≥ 0,
// where t is the (policy-normalized) throughput row. By the KKT conditions
// the optimum is supported on at most two resources, so enumerating
// singleton and pair supports is exact — each call is O(r²) closed forms,
// no solver.
type clusterDomain struct {
	t     []float64 // n×r row-major throughputs (alpha > 0: ÷ the reference normaliser)
	z     []float64 // per-job resource scale z_j
	w     []float64 // log-utility weights (alpha == 0)
	cap   []float64
	n, r  int
	alpha float64 // > 0: alpha-fair utility u^(1-α)/(1-α); 0: w·log(u)
	hint  float64

	// The max-min market's normalized throughput t̃_ji = T_ji/(w_j·eqThr_j·z_j)
	// depends on the whole population through the equal-share row inside
	// eqThr, and that row moves whenever the total scale does — on a shard
	// worker, every round. But it only moves along one direction: it is the
	// capacity vector over max(Σz, Σcap). So rows are stored against a
	// reference row, the equal share of the total scale rounded up to a
	// power of two, and the true value is t̃ = sigma·t with one scalar
	// sigma ∈ (½, 1] per load. A row's constants then depend only on its own
	// job, the pool, and the power-of-two bucket — not on who else is in the
	// market, and not on the engine's history — and sigma folds into the
	// per-iteration price roots below, so a round recomputes the rows that
	// changed and nothing else.
	eqRef []float64 // reference equal-share row
	sigma float64   // current equal-share denominator / the reference one

	// Alpha-fair fast path (alpha > 0): the per-iteration cost of a best
	// response is dominated by math.Pow, so everything price-independent is
	// hoisted here when a row is loaded —
	//   tPow[j][i]  = t_ji^(1/α − 1)  (interior singleton demand factor)
	//   tUtil[j][i] = t_ji^(1−α)      (clamped singleton utility)
	//   zRoot[j]    = z_j^(−1/α)
	// and pRoot_i = sigma^(1/α−1)·price_i^(−1/α) is refreshed once per
	// iteration by PrepareIteration instead of once per client (utilScale,
	// sigma^(1−α)/(1−α), once per load). α is a power of two, so the
	// remaining per-pair root s^(−1/α) runs as a √-chain (alphaSqrts hardware
	// square roots) instead of a Pow call.
	tPow, tUtil []float64
	zRoot       []float64
	pRoot       []float64
	utilScale   float64
	// Pair supports factor the same way: the stationary utility of pair
	// (a, b) is u = (dc/dt)^(−1/α) = z^(−1/α)·|Δp|^(−1/α)·|Δt̃|^(1/α), so
	// dtRoot holds |t_a−t_b|^(1/α) per client pair (load time) and pairRoot
	// sigma^(1/α)·|p_a−p_b|^(−1/α) per pair (each PrepareIteration) — no
	// roots remain in the per-client hot path.
	dtRoot   []float64 // n×npairs row-major
	pairRoot []float64 // npairs
	npairs   int
}

const (
	// maxMinAlpha is the alpha-fair exponent of the max-min market: larger
	// approximates max-min more closely but conditions the best responses
	// worse. It is 2^alphaSqrts so that invAlphaRoot needs no math.Pow.
	alphaSqrts  = 5
	maxMinAlpha = 1 << alphaSqrts
)

func (d *clusterDomain) Dims() (int, int)       { return d.n, d.r }
func (d *clusterDomain) Capacity(out []float64) { copy(out, d.cap) }
func (d *clusterDomain) DemandHint() float64    { return d.hint }

// phi is the weighted-log utility of the proportional-fair market (the
// alpha-fair one never evaluates its utility: see bestResponseAlpha).
func (d *clusterDomain) phi(j int, u float64) float64 {
	if u <= 0 {
		return math.Inf(-1)
	}
	return d.w[j] * math.Log(u)
}

// invPhiPrime inverts phi's marginal utility: the u with φ'(u) = s, s > 0.
func (d *clusterDomain) invPhiPrime(j int, s float64) float64 {
	return d.w[j] / s
}

func (d *clusterDomain) BestResponse(j int, price []float64, out []float64) {
	if d.alpha > 0 {
		d.bestResponseAlpha(j, price, out)
		return
	}
	r := d.r
	t := d.t[j*r : (j+1)*r]
	z := d.z[j]
	for i := range out {
		out[i] = 0
	}
	bestVal := math.Inf(-1)
	bestA, bestB := -1, -1
	var xA, xB float64

	// Singletons: t_i·φ'(t_i·x) = c_i, clamped to the time budget.
	for i := 0; i < r; i++ {
		if t[i] <= 0 {
			continue
		}
		ci := z * price[i]
		x := 1.0
		if ci > 0 {
			x = math.Min(1, d.invPhiPrime(j, ci/t[i])/t[i])
		}
		if x <= 0 {
			continue
		}
		if v := d.phi(j, t[i]*x) - ci*x; v > bestVal {
			bestVal, bestA, bestB, xA, xB = v, i, -1, x, 0
		}
	}
	// Pairs on the time boundary x_a + x_b = 1: stationarity gives
	// φ'(u*) = (c_a-c_b)/(t_a-t_b); interior mixes only.
	for a := 0; a < r; a++ {
		if t[a] <= 0 {
			continue
		}
		ca := z * price[a]
		for b := a + 1; b < r; b++ {
			if t[b] <= 0 {
				continue
			}
			cb := z * price[b]
			dt, dc := t[a]-t[b], ca-cb
			if dt == 0 || dc == 0 || (dt > 0) != (dc > 0) {
				continue // degenerate or dominated: singletons cover it
			}
			u := d.invPhiPrime(j, dc/dt)
			xa := (u - t[b]) / dt
			if xa <= 0 || xa >= 1 {
				continue // boundary cases are the singleton candidates
			}
			xb := 1 - xa
			if v := d.phi(j, t[a]*xa+t[b]*xb) - ca*xa - cb*xb; v > bestVal {
				bestVal, bestA, bestB, xA, xB = v, a, b, xa, xb
			}
		}
	}
	if bestA >= 0 {
		out[bestA] = z * xA
		if bestB >= 0 {
			out[bestB] = z * xB
		}
	}
}

// PrepareIteration caches price_i^(−1/α) for the iteration's best responses
// (alpha-fair fast path). Solve calls it single-threaded before each fan-out.
func (d *clusterDomain) PrepareIteration(price []float64) {
	if d.alpha <= 0 {
		return
	}
	sigmaRoot := 1 / invAlphaRoot(d.sigma) // sigma^(1/α)
	for i, p := range price {
		d.pRoot[i] = invAlphaRoot(p) * sigmaRoot / d.sigma
	}
	pi := 0
	for a := 0; a < d.r; a++ {
		for b := a + 1; b < d.r; b++ {
			if dp := math.Abs(price[a] - price[b]); dp > 0 {
				d.pairRoot[pi] = invAlphaRoot(dp) * sigmaRoot
			} else {
				d.pairRoot[pi] = 0 // equal prices: pair degenerate, skipped
			}
			pi++
		}
	}
}

// invAlphaRoot computes s^(−1/maxMinAlpha) as a chain of alphaSqrts
// hardware square roots.
func invAlphaRoot(s float64) float64 {
	for k := 0; k < alphaSqrts; k++ {
		s = math.Sqrt(s)
	}
	return 1 / s
}

// bestResponseAlpha is the alpha-fair best response with all price- and
// client-invariant powers hoisted (see the clusterDomain field comment).
// Values compare through the stationarity identity u^(1−α) = u·φ'(u), so a
// candidate costs multiplies — plus one root per admissible pair.
func (d *clusterDomain) bestResponseAlpha(j int, price []float64, out []float64) {
	r := d.r
	t := d.t[j*r : (j+1)*r]
	tPow := d.tPow[j*r : (j+1)*r]
	tUtil := d.tUtil[j*r : (j+1)*r]
	z := d.z[j]
	zr := d.zRoot[j]
	for i := range out {
		out[i] = 0
	}
	// φ(u) − cost at the interior stationary point φ'(u) = s reduces to
	// (α/(1−α))·u·s − K, so candidates compare without evaluating powers.
	scale := d.alpha / (1 - d.alpha)
	bestVal := math.Inf(-1)
	bestA, bestB := -1, -1
	var xA, xB float64

	for i := 0; i < r; i++ {
		if t[i] <= 0 {
			continue
		}
		ci := z * price[i]
		// Interior singleton demand: x = (c_i/t_i)^(−1/α)/t_i, factored as
		// z^(−1/α)·p_i^(−1/α)·t_i^(1/α−1).
		x := zr * d.pRoot[i] * tPow[i]
		var v float64
		if x < 1 {
			if x <= 0 {
				continue
			}
			// v = (α/(1−α))·u·(c_i/t̃_i) at stationarity, u = t̃_i·x.
			v = scale * x * ci
		} else {
			// Clamped to the full time budget: v = t̃_i^(1−α)/(1−α) − c_i.
			x = 1
			v = tUtil[i]*d.utilScale - ci
		}
		if v > bestVal {
			bestVal, bestA, bestB, xA, xB = v, i, -1, x, 0
		}
	}
	dtRoot := d.dtRoot[j*d.npairs : (j+1)*d.npairs]
	pi := 0
	for a := 0; a < r; a++ {
		ca := z * price[a]
		for b := a + 1; b < r; b++ {
			rt := dtRoot[pi] * d.pairRoot[pi]
			pi++
			if rt == 0 || t[a] <= 0 || t[b] <= 0 {
				continue
			}
			cb := z * price[b]
			tb := d.sigma * t[b]
			dt, dc := d.sigma*t[a]-tb, ca-cb
			if dt == 0 || dc == 0 || (dt > 0) != (dc > 0) {
				continue // degenerate or dominated: singletons cover it
			}
			s := dc / dt
			u := zr * rt
			xa := (u - tb) / dt
			if xa <= 0 || xa >= 1 {
				continue // boundary cases are the singleton candidates
			}
			// v = (α/(1−α))·u·s − K with K = c_b − t̃_b·s.
			if v := scale*u*s - (cb - tb*s); v > bestVal {
				bestVal, bestA, bestB, xA, xB = v, a, b, xa, 1-xa
			}
		}
	}
	if bestA >= 0 {
		out[bestA] = z * xA
		if bestB >= 0 {
			out[bestB] = z * xB
		}
	}
}

// ScaleElasticity reports the market's aggregate demand elasticity under
// a uniform price rescale: interior alpha-fair demand scales as p^(−1/α),
// and the log-utility (prop-fair) demand as p^(−1), so Solve's common-mode
// Newton rescale is exact in the interior for both policies.
func (d *clusterDomain) ScaleElasticity() float64 {
	if d.alpha > 0 {
		return d.alpha
	}
	return 1
}

// newClusterDomain allocates an empty market over r resources: the
// alpha-fair (max-min) market when alpha is maxMinAlpha, the weighted-log
// (proportional-fair) one when alpha == 0. Rows are installed by load —
// all at once for a one-shot solve, or only where the client table changed
// when an engine keeps the domain between rounds.
func newClusterDomain(r int, alpha float64) *clusterDomain {
	d := &clusterDomain{r: r, alpha: alpha}
	if alpha <= 0 {
		return d
	}
	d.pRoot = make([]float64, r)
	d.npairs = r * (r - 1) / 2
	d.pairRoot = make([]float64, d.npairs)
	return d
}

// resize sets the client count, keeping the constants of surviving rows.
func (d *clusterDomain) resize(n int) {
	fit := func(s []float64, n int) []float64 {
		if n <= cap(s) {
			return s[:n]
		}
		return append(s[:cap(s)], make([]float64, n-cap(s))...)
	}
	d.n = n
	d.t = fit(d.t, n*d.r)
	d.z = fit(d.z, n)
	if d.alpha > 0 {
		d.tPow = fit(d.tPow, n*d.r)
		d.tUtil = fit(d.tUtil, n*d.r)
		d.zRoot = fit(d.zRoot, n)
		d.dtRoot = fit(d.dtRoot, n*d.npairs)
	} else {
		d.w = fit(d.w, n)
	}
}

// move shifts the constants of rows [src, src+n) to [dst, dst+n) — the
// cluster.Table.Commit hook that keeps the domain aligned with the client
// table without recomputing anything.
func (d *clusterDomain) move(dst, src, n int) {
	shift := func(s []float64, stride int) {
		copy(s[dst*stride:], s[src*stride:(src+n)*stride])
	}
	shift(d.t, d.r)
	shift(d.z, 1)
	if d.alpha > 0 {
		shift(d.tPow, d.r)
		shift(d.tUtil, d.r)
		shift(d.zRoot, 1)
		shift(d.dtRoot, d.npairs)
	} else {
		shift(d.w, 1)
	}
}

// load points the domain at jobs over pool c. With all set every client's
// constants are recomputed; otherwise only the listed rows (the positions
// the client table reported as new or changed) are, the rest keeping what
// an earlier load gave them. The max-min market normalizes throughputs the
// way the max-min LP does — t̃_ji = T_ji/(w_j·eqThr_j·z_j), so a unit of
// utility is a unit of the normalized ratio the policy maximizes the
// minimum of — against the reference row (see the field comment), so kept
// rows go stale only when that reference moves: the pool changed, or the
// total scale crossed a power of two. Then everything is recomputed
// regardless. Degenerate jobs (zero equal-share throughput) get a zero row
// and demand nothing, mirroring the LP skipping their fair row. The
// proportional-fair market uses raw throughputs with the weighted log
// utility — the Eisenberg-Gale market whose equilibrium is the
// proportional-fair optimum.
func (d *clusterDomain) load(jobs []cluster.Job, c cluster.Cluster, rows []int, all bool) {
	d.cap = append(d.cap[:0], c.NumGPUs...)
	d.hint = 0
	for _, j := range jobs {
		d.hint += j.Scale
	}
	if d.alpha > 0 {
		bucket := d.hint // the total scale, rounded up to a power of two
		if frac, exp := math.Frexp(bucket); frac != 0.5 {
			bucket = math.Ldexp(1, exp)
		}
		if ref := cluster.EqualShareOf(bucket, c); all || !slices.Equal(ref, d.eqRef) {
			d.eqRef, all = ref, true
		}
		d.sigma = 1
		for i, e := range cluster.EqualShareOf(d.hint, c) {
			if e > 0 {
				d.sigma = d.eqRef[i] / e
				break
			}
		}
		d.utilScale = math.Pow(d.sigma, 1-d.alpha) / (1 - d.alpha)
	}
	if all {
		for idx, j := range jobs {
			d.setRow(idx, j)
		}
		return
	}
	for _, idx := range rows {
		d.setRow(idx, jobs[idx])
	}
}

// setRow computes client idx's price-independent constants from its job.
func (d *clusterDomain) setRow(idx int, j cluster.Job) {
	r := d.r
	t := d.t[idx*r : (idx+1)*r]
	d.z[idx] = j.Scale
	if d.alpha <= 0 {
		d.w[idx] = j.Weight
		copy(t, j.Throughput)
		return
	}
	clear(t)
	if denom := j.Weight * cluster.EffectiveThroughput(j, d.eqRef) * j.Scale; denom > 0 {
		for i := range t {
			t[i] = j.Throughput[i] / denom
		}
	}
	// Alpha-fair fast-path caches (see the clusterDomain field comment).
	tPow := d.tPow[idx*r : (idx+1)*r]
	tUtil := d.tUtil[idx*r : (idx+1)*r]
	for i, v := range t {
		tPow[i], tUtil[i] = 0, 0
		if v > 0 {
			tPow[i] = math.Pow(v, 1/d.alpha-1)
			tUtil[i] = math.Pow(v, 1-d.alpha)
		}
	}
	d.zRoot[idx] = 0
	if j.Scale > 0 {
		d.zRoot[idx] = invAlphaRoot(j.Scale)
	}
	dtRoot := d.dtRoot[idx*d.npairs : (idx+1)*d.npairs]
	pi := 0
	for a := 0; a < r; a++ {
		for b := a + 1; b < r; b++ {
			dtRoot[pi] = 0
			if dt := math.Abs(t[a] - t[b]); dt > 0 {
				// |Δt|^(1/α) = 1/invAlphaRoot(|Δt|).
				dtRoot[pi] = 1 / invAlphaRoot(dt)
			}
			pi++
		}
	}
}

// oneShotDomain builds the market of a single solve over jobs: alpha-fair
// (max-min) for alpha == maxMinAlpha, proportional-fair for alpha == 0.
func oneShotDomain(jobs []cluster.Job, c cluster.Cluster, alpha float64) *clusterDomain {
	d := newClusterDomain(c.NumTypes(), alpha)
	d.resize(len(jobs))
	d.load(jobs, c, nil, true)
	return d
}

// withMaxMinStep gives the max-min market its price step: alpha-fair demand
// elasticity is 1/α, so the step scales with the exponent to keep the
// effective price motion what the unit-elasticity markets see.
func withMaxMinStep(opts Options) Options {
	opts.step = maxMinAlpha / 12.0
	return opts
}

// SolveMaxMin approximates cluster.MaxMinFairness by price discovery: no
// LP, per-job closed-form best responses. The returned Solution carries the
// prices (warm start for the next round) and convergence accounting.
func SolveMaxMin(jobs []cluster.Job, c cluster.Cluster, opts Options) (*cluster.Allocation, *Solution, error) {
	return solveCluster(oneShotDomain(jobs, c, maxMinAlpha), jobs, c, withMaxMinStep(opts))
}

// SolvePropFair approximates cluster.ProportionalFairness by price
// discovery over the Eisenberg-Gale market.
func SolvePropFair(jobs []cluster.Job, c cluster.Cluster, opts Options) (*cluster.Allocation, *Solution, error) {
	return solveCluster(oneShotDomain(jobs, c, 0), jobs, c, opts)
}

func solveCluster(d *clusterDomain, jobs []cluster.Job, c cluster.Cluster, opts Options) (*cluster.Allocation, *Solution, error) {
	sol, err := Solve(d, opts)
	if err != nil {
		return nil, nil, err
	}
	return clusterAllocation(jobs, c, sol), sol, nil
}

// clusterAllocation converts averaged demands back to time fractions and
// projects onto the feasible polytope: rows are clamped to the unit time
// budget (best responses already respect it; averaging preserves it), then
// overdemanded capacity columns are scaled down, which only shrinks rows.
// The rows share one backing slab.
func clusterAllocation(jobs []cluster.Job, c cluster.Cluster, sol *Solution) *cluster.Allocation {
	n, r := len(jobs), c.NumTypes()
	a := &cluster.Allocation{
		X:      make([][]float64, n),
		EffThr: make([]float64, n),
	}
	slab := make([]float64, n*r)
	used := make([]float64, r)
	for idx, j := range jobs {
		row := slab[idx*r : (idx+1)*r : (idx+1)*r]
		sum := 0.0
		if z := j.Scale; z > 0 {
			dem := sol.ClientDemand(idx)
			for i := 0; i < r; i++ {
				x := dem[i] / z
				if x < 0 {
					x = 0
				}
				row[i] = x
				sum += x
			}
		}
		if sum > 1 {
			for i := range row {
				row[i] /= sum
			}
		}
		for i := range row {
			used[i] += j.Scale * row[i]
		}
		a.X[idx] = row
	}
	for i := 0; i < r; i++ {
		if used[i] > c.NumGPUs[i] && used[i] > 0 {
			f := c.NumGPUs[i] / used[i]
			for idx := range jobs {
				slab[idx*r+i] *= f
			}
		}
	}
	for idx, j := range jobs {
		a.EffThr[idx] = cluster.EffectiveThroughput(j, a.X[idx])
	}
	return a
}

// MaxMinObjective evaluates the max-min policy objective — the minimum
// normalized throughput ratio over non-degenerate jobs — for comparing a
// price allocation against the LP optimum.
func MaxMinObjective(jobs []cluster.Job, c cluster.Cluster, a *cluster.Allocation) float64 {
	eq := cluster.EqualShare(jobs, c)
	min := math.Inf(1)
	for idx, j := range jobs {
		eqThr := cluster.EffectiveThroughput(j, eq)
		if eqThr <= 0 {
			continue
		}
		if ratio := a.EffThr[idx] / (j.Weight * eqThr * j.Scale); ratio < min {
			min = ratio
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}
