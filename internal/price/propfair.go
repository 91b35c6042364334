package price

import (
	"math"

	"pop/internal/cluster"
)

// propFairTol is the proportional-fairness market's clearing tolerance. It
// is tighter than max-min's clearTol because the policy's objective is a
// sum of logs over every job: at 0.01 the exact solve stops while the
// averaged market is still visibly over- or under-sold (see doc.go).
const propFairTol = 1e-5

// propFairDomain is the proportional-fairness market of §4.1 over raw
// throughputs: client j's best response maximizes
//
//	w_j·log(Σ_i T_ji·x_i) − Σ_i z_j·price_i·x_i   over Σ_i x_i ≤ 1, x ≥ 0,
//
// demanding z_j·x_i units of resource i. By the KKT conditions the optimum
// is supported on at most two resources (active resources tie in
// t_i/(c_i+μ) for the common multiplier μ), so enumerating singleton and
// pair supports is exact. Log utility has unit elasticity, so the market
// runs on Solve's default step and exposes no ScaleElasticity (see doc.go).
type propFairDomain struct {
	jobs []cluster.Job
	cap  []float64
	hint float64
}

func (d *propFairDomain) Dims() (int, int)       { return len(d.jobs), len(d.cap) }
func (d *propFairDomain) Capacity(out []float64) { copy(out, d.cap) }
func (d *propFairDomain) DemandHint() float64    { return d.hint }

func (d *propFairDomain) BestResponse(j int, price []float64, out []float64) {
	job := d.jobs[j]
	w, z, t := job.Weight, job.Scale, job.Throughput
	clear(out)
	value := func(u, cost float64) float64 {
		if u <= 0 {
			return math.Inf(-1)
		}
		return w*math.Log(u) - cost
	}
	bestVal := math.Inf(-1)
	bestA, bestB := -1, -1
	var xA, xB float64

	// Singletons: x_i = min(1, w/c_i).
	for i := range price {
		if t[i] <= 0 {
			continue
		}
		ci := z * price[i]
		x := 1.0
		if ci > 0 {
			x = math.Min(1, w/ci)
		}
		if v := value(t[i]*x, ci*x); v > bestVal {
			bestVal, bestA, bestB, xA, xB = v, i, -1, x, 0
		}
	}
	// Pairs on the time boundary: x_a + x_b = 1. The stationary utility is
	// u* = w(t_a − t_b)/(c_a − c_b); interior mixing weights only.
	for a := range price {
		if t[a] <= 0 {
			continue
		}
		for b := a + 1; b < len(price); b++ {
			if t[b] <= 0 {
				continue
			}
			ca, cb := z*price[a], z*price[b]
			dt, dc := t[a]-t[b], ca-cb
			if dt == 0 || dc == 0 {
				continue // degenerate: singleton candidates cover it
			}
			xa := (w*dt/dc - t[b]) / dt
			if xa <= 0 || xa >= 1 {
				continue // boundary cases are the singleton candidates
			}
			xb := 1 - xa
			if v := value(t[a]*xa+t[b]*xb, ca*xa+cb*xb); v > bestVal {
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

// SolvePropFair solves cluster scheduling's proportional-fairness policy
// (§4.1, maximize Σ_j w_j·log(thr_j)) by price discovery, the analogue of
// the paper's custom solver for it. The returned Solution carries the
// prices and convergence accounting, as SolveMaxMin's does.
func SolvePropFair(jobs []cluster.Job, c cluster.Cluster, opts Options) (*cluster.Allocation, *Solution, error) {
	d := &propFairDomain{jobs: jobs, cap: c.NumGPUs}
	for _, j := range jobs {
		d.hint += j.Scale
	}
	opts.tol = propFairTol
	sol, err := Solve(d, opts)
	if err != nil {
		return nil, nil, err
	}
	return clusterAllocation(jobs, c, sol), sol, nil
}
