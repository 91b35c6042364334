package price

import (
	"math"
	"slices"

	"pop/internal/cluster"
)

// clusterDomain is the max-min GPU market: it prices the GPU-type
// capacities, and client j's best response maximizes φ(Σ_i t_ji·x_i) −
// Σ_i z_j·price_i·x_i over Σ_i x_i ≤ 1, x ≥ 0, where φ is the alpha-fair
// utility u^(1−α)/(1−α) with α = maxMinAlpha — a smooth stand-in for the
// heterogeneity-aware least-attained-service policy — and t is the
// normalized throughput row. The problem is concave, so the KKT conditions
// decide it. Nearly always the optimum is an interior singleton on the type
// with the lowest price per unit throughput, and BestResponse certifies
// that in O(r) cross-multiplications (see certifiedSingleton). Otherwise it
// falls back to enumerating singleton and pair supports — exact, because
// the optimum is supported on at most two resources — which costs O(r²)
// closed forms. Neither path runs a solver. Solve reaches both through
// BestResponses, one chunk of clients per call: for r = 3 the certificate
// and the fold into the partial demands and averaged rows run unrolled,
// with no branch on the cheapest type (bestResponses3); any uncertified
// client, and every client when r ≠ 3, takes BestResponse and the generic
// fold. The unrolled path computes the same products in the same order,
// so it changes no bit of the solve.
type clusterDomain struct {
	t    []float64 // n×r row-major throughputs ÷ the reference normaliser
	z    []float64 // per-job resource scale z_j
	cap  []float64
	n, r int
	hint float64

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

	// The per-iteration cost of a best response is dominated by math.Pow,
	// so everything price-independent is hoisted here when a row is loaded —
	//   tPow[j][i]  = t_ji^(1/α − 1)  (interior singleton demand factor)
	//   tUtil[j][i] = t_ji^(1−α)      (clamped singleton utility)
	//   zRoot[j]    = z_j^(−1/α)
	// and pRoot_i = sigma^(1/α−1)·price_i^(−1/α) is refreshed once per
	// iteration by PrepareIteration instead of once per client (utilScale,
	// sigma^(1−α)/(1−α), once per load); the r = 3 chunk kernel reads it
	// into registers once per chunk. α is a power of two, so the
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
	alphaSqrts          = 5
	maxMinAlpha float64 = 1 << alphaSqrts
)

func (d *clusterDomain) Dims() (int, int)       { return d.n, d.r }
func (d *clusterDomain) Capacity(out []float64) { copy(out, d.cap) }
func (d *clusterDomain) DemandHint() float64    { return d.hint }

// PrepareIteration caches price_i^(−1/α) for the iteration's best
// responses. Solve calls it single-threaded before each fan-out.
func (d *clusterDomain) PrepareIteration(price []float64) {
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

// BestResponse returns the certified interior singleton when there is one,
// and the enumeration's answer otherwise. Both write the same expression,
// z·x with x = zr·pRoot·tPow, for an interior singleton, so the fast path
// changes no bit of the result.
func (d *clusterDomain) BestResponse(j int, price []float64, out []float64) {
	d.respond(j, price, out)
}

// respond is BestResponse, reporting whether it had to enumerate.
func (d *clusterDomain) respond(j int, price []float64, out []float64) (enumerated bool) {
	if i, x, ok := d.certifiedSingleton(j, price); ok {
		clear(out)
		out[i] = d.z[j] * x
		return false
	}
	d.enumerate(j, price, out)
	return true
}

// BestResponses is Solve's per-chunk pass (see chunkResponder): the best
// responses of clients [lo, hi), folded into acc and avg. Three resources
// run the unrolled bestResponses3; any other count runs BestResponse and
// the generic fold per client.
func (d *clusterDomain) BestResponses(lo, hi int, price []float64, gamma float64, acc, avg, cur []float64) int {
	if d.r == 3 {
		return d.bestResponses3(lo, hi, price, gamma, acc, avg)
	}
	r, enumerated := d.r, 0
	for j := lo; j < hi; j++ {
		if d.respond(j, price, cur) {
			enumerated++
		}
		foldResponse(cur, acc, avg[j*r:(j+1)*r], gamma)
	}
	return enumerated
}

// bestResponses3 is BestResponses for r = 3 with certifiedSingleton and
// the fold unrolled. The prices and their roots are read once per chunk,
// the chunk's three partial demands stay in registers, and the argmin is
// integer arithmetic on certifiedSingleton's two comparisons, so a
// certified client costs a handful of multiplies and compares, no call and
// no branch on its cheapest type. It evaluates certifiedSingleton's
// predicates on the same products and writes the same z·x, and its fold is
// the generic one with the two zero entries spelled out, so it changes no
// bit. A client with a zero throughput, or one the certificate does not
// answer, goes through respond or enumerate and the same fold.
func (d *clusterDomain) bestResponses3(lo, hi int, price []float64, gamma float64, acc, avg []float64) int {
	p := [3]float64{price[0], price[1], price[2]}
	q := [3]float64{d.pRoot[0], d.pRoot[1], d.pRoot[2]}
	a0, a1, a2 := acc[0], acc[1], acc[2]
	t, tPow, row := d.t[3*lo:3*hi], d.tPow[3*lo:3*hi], avg[3*lo:3*hi]
	z, zRoot := d.z[lo:hi], d.zRoot[lo:hi]
	enumerated := 0
	for k := range z {
		tj, rj := t[3*k:3*k+3:3*k+3], row[3*k:3*k+3:3*k+3]
		var v [3]float64
		if t0, t1, t2 := tj[0], tj[1], tj[2]; t0 > 0 && t1 > 0 && t2 > 0 {
			// i* = argmin_i p_i/t_i, the first of equals, by
			// certifiedSingleton's two comparisons, and the other two types
			// in ascending order, o1 < o2 — all in integer arithmetic on the
			// comparisons' outcomes, so that the cheapest type, which varies
			// from client to client at clearing prices, costs no branch.
			c1 := b2i(p[1]*t0 < p[0]*t1)
			c2 := b2i(p[2]*tj[c1] < p[c1]*t2)
			best := c1 + c2*(2-c1)
			o1, o2 := b2i(best == 0), 2-c2
			pb, tb := p[best], tj[best]
			x := zRoot[k] * q[best] * tPow[3*k+best]
			slack := 1 - x
			cd := certDelta * pb
			face := cd * tb * x
			if x > 0 && x < 1-certEta &&
				beats(p[o1], tj[o1], pb, tb, cd, slack, face) &&
				beats(p[o2], tj[o2], pb, tb, cd, slack, face) {
				v[best] = z[k] * x
			} else {
				d.enumerate(lo+k, price, v[:])
				enumerated++
			}
		} else if d.respond(lo+k, price, v[:]) {
			enumerated++
		}
		a0 += v[0]
		a1 += v[1]
		a2 += v[2]
		rj[0] += gamma * (v[0] - rj[0])
		rj[1] += gamma * (v[1] - rj[1])
		rj[2] += gamma * (v[2] - rj[2])
	}
	acc[0], acc[1], acc[2] = a0, a1, a2
	return enumerated
}

const (
	// certDelta is the relative margin by which the certified type must
	// beat every other one, and certEta the distance the certified demand
	// must keep from the time budget; certifiedSingleton derives both.
	certDelta = 1e-6
	certEta   = 1e-4
)

// certifiedSingleton reports whether client j's best response is the
// interior singleton on i* = argmin_i price_i/t_ji, with the demand x it
// puts there. With c_i = z·p_i the cost and t̃_i = sigma·t_i the normalized
// throughput, the client maximizes the concave f(x) = φ(Σ t̃_i·x_i) − Σ c_i·x_i
// over Σx ≤ 1, so KKT is sufficient: the singleton x* on i* with 0 < x* < 1
// is optimal when D_k = p_k·t_i* − p_i*·t_k ≥ 0 for every k (sigma and z
// cancel). Any feasible x then loses exactly
//
//	f(x*) − f(x) = B(u) + Σ_k g_k·x_k,   g_k = z·D_k/t_i* ≥ 0,
//
// with B(u) ≥ 0 the Bregman gap of φ between u = Σ t̃_i·x_i and u* = t̃_i*·x*.
// The enumeration keeps the best of rounded candidate values, so the fast
// path answers only when every other candidate loses far more than that
// rounding. Relative to |f(x*)| ≈ c_i*·x*:
//   - an interior singleton on k loses ≈ D_k/(p_i*·t_k), which the check
//     D_k > δ·p_i*·t_k keeps above δ;
//   - a point on the budget face Σx = 1 (a pair, or a clamped singleton)
//     either moves Y ≥ (1−x*)/2 of its time off i*, losing ≥ g_min·Y, which
//     D_k > δ·p_i*·t_i*·x*/(1−x*) keeps above δ/2, or keeps
//     u ≥ u*·(1 + (1−x*)/(2x*)) and loses B ≈ (α−1)/8·(1−x*)². That second
//     loss is only second order in 1 − x*: a pair next to x* on the face
//     comes within rounding of the optimum once 1 − x* nears 1e-8, which is
//     why x* < 1 − η is required.
//
// Singleton values round at ~1e-15 relative. A pair's value rounds by up to
// ~10·ε_mach divided by the relative throughput gap of its two types,
// because its slope dc/dt is a quotient of differences. The only pairs that
// can come close run from i* to a cheaper, lower-throughput k, and the
// margins hold that gap above δ/2 and above δ·x*/(1−x*). At δ = 1e-6 and
// η = 1e-4 the rounding stays two orders below each loss above, and the
// enumeration picks i* too and writes the same z·x.
func (d *clusterDomain) certifiedSingleton(j int, price []float64) (int, float64, bool) {
	r := d.r
	t := d.t[j*r : (j+1)*r]
	best := -1
	for i, ti := range t {
		if ti > 0 && (best < 0 || price[i]*t[best] < price[best]*ti) {
			best = i
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	x := d.zRoot[j] * d.pRoot[best] * d.tPow[j*r+best]
	if !(x > 0 && x < 1-certEta) {
		return -1, 0, false
	}
	pb, tb, slack := price[best], t[best], 1-x
	cd := certDelta * pb
	face := cd * tb * x
	for k, tk := range t {
		if k != best && !beats(price[k], tk, pb, tb, cd, slack, face) {
			return -1, 0, false
		}
	}
	return best, x, true
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// beats is the certificate's margin check of type k against i*:
// D_k > δ·p_i*·(t_k + t_i*·x/(1−x)), multiplied through by 1 − x > 0, with
// cd = δ·p_i* and face = δ·p_i*·t_i*·x. Zero-throughput types are never
// candidates of the enumeration and pass; NaN fails.
func beats(pk, tk, pb, tb, cd, slack, face float64) bool {
	return tk <= 0 || (pk*tb-pb*tk)*slack > cd*tk*slack+face
}

// enumerate evaluates every singleton and pair support with all price- and
// client-invariant powers hoisted (see the clusterDomain field comment).
// Values compare through the stationarity identity u^(1−α) = u·φ'(u), so a
// candidate costs multiplies — plus one root per admissible pair.
func (d *clusterDomain) enumerate(j int, price []float64, out []float64) {
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
	const scale = maxMinAlpha / (1 - maxMinAlpha)
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
// so Solve's common-mode Newton rescale is exact in the interior.
func (d *clusterDomain) ScaleElasticity() float64 { return maxMinAlpha }

// newClusterDomain allocates an empty market over r resources. Rows are
// installed by load — all at once for a one-shot solve, or only where the
// client table changed when an engine keeps the domain between rounds.
func newClusterDomain(r int) *clusterDomain {
	d := &clusterDomain{r: r}
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
	d.tPow = fit(d.tPow, n*d.r)
	d.tUtil = fit(d.tUtil, n*d.r)
	d.zRoot = fit(d.zRoot, n)
	d.dtRoot = fit(d.dtRoot, n*d.npairs)
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
	shift(d.tPow, d.r)
	shift(d.tUtil, d.r)
	shift(d.zRoot, 1)
	shift(d.dtRoot, d.npairs)
}

// load points the domain at jobs over pool c. With all set every client's
// constants are recomputed; otherwise only the listed rows (the positions
// the client table reported as new or changed) are, the rest keeping what
// an earlier load gave them. Throughputs are normalized the way the
// max-min LP does — t̃_ji = T_ji/(w_j·eqThr_j·z_j), so a unit of utility is
// a unit of the normalized ratio the policy maximizes the minimum of —
// against the reference row (see the field comment), so kept rows go stale
// only when that reference moves: the pool changed, or the total scale
// crossed a power of two. Then everything is recomputed regardless.
// Degenerate jobs (zero equal-share throughput) get a zero row and demand
// nothing, mirroring the LP skipping their fair row.
func (d *clusterDomain) load(jobs []cluster.Job, c cluster.Cluster, rows []int, all bool) {
	d.cap = append(d.cap[:0], c.NumGPUs...)
	d.hint = 0
	for _, j := range jobs {
		d.hint += j.Scale
	}
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
	d.utilScale = math.Pow(d.sigma, 1-maxMinAlpha) / (1 - maxMinAlpha)
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
	clear(t)
	if denom := j.Weight * cluster.EffectiveThroughput(j, d.eqRef) * j.Scale; denom > 0 {
		for i := range t {
			t[i] = j.Throughput[i] / denom
		}
	}
	// Hoisted powers and roots (see the clusterDomain field comment).
	tPow := d.tPow[idx*r : (idx+1)*r]
	tUtil := d.tUtil[idx*r : (idx+1)*r]
	for i, v := range t {
		tPow[i], tUtil[i] = 0, 0
		if v > 0 {
			tPow[i] = math.Pow(v, 1/maxMinAlpha-1)
			tUtil[i] = math.Pow(v, 1-maxMinAlpha)
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

// withMaxMinStep gives the market its price step: alpha-fair demand
// elasticity is 1/α, so the step scales with the exponent to keep the
// effective price motion what a unit-elasticity market sees.
func withMaxMinStep(opts Options) Options {
	opts.step = maxMinAlpha / 12.0
	return opts
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
