// Package gen synthesizes LP instances shaped like the three POP case
// studies — traffic engineering (path-based max flow), cluster scheduling
// (max-min fairness epigraph), and shard load balancing (fractional
// assignment) — at graded sizes, for the lp benchmarks and the suites that
// hold the solver to its references on case-study shapes.
package gen

import (
	"fmt"
	"math/rand"

	"pop/internal/lp"
)

// Size grades an instance family.
type Size int

const (
	Small Size = iota
	Medium
	Large
)

func (s Size) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// Sizes lists the benchmarked grades in ascending order.
func Sizes() []Size { return []Size{Small, Medium, Large} }

// Instance couples a generated problem with its provenance.
type Instance struct {
	Family string // "te", "cluster", or "lb"
	Size   Size
	P      *lp.Problem
}

// Name is the canonical "family/size" label.
func (in *Instance) Name() string { return in.Family + "/" + in.Size.String() }

// All generates every family at every size with the given seed.
func All(seed int64) []*Instance {
	var out []*Instance
	for _, sz := range Sizes() {
		out = append(out,
			&Instance{"te", sz, TE(sz, seed)},
			&Instance{"cluster", sz, Cluster(sz, seed)},
			&Instance{"lb", sz, LB(sz, seed)},
		)
	}
	return out
}

func pick(s Size, small, medium, large int) int {
	switch s {
	case Medium:
		return medium
	case Large:
		return large
	default:
		return small
	}
}

// TE builds a path-based max-total-flow LP: one variable per (commodity,
// path) with ~hops nonzeros in the edge-capacity rows plus one in the
// commodity's demand row — the extremely sparse column profile the sparse
// LU backend is designed for.
func TE(s Size, seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed))
	edges := pick(s, 60, 200, 500)
	commodities := pick(s, 80, 300, 900)
	paths := 4
	hops := 4

	p := lp.NewProblem(lp.Maximize)
	edgeRows := make([][]int, edges)
	edgeVals := make([][]float64, edges)
	for c := 0; c < commodities; c++ {
		demand := 1 + rng.Float64()*9
		var cidx []int
		for k := 0; k < paths; k++ {
			v := p.AddVariable(1, 0, lp.Inf, "")
			cidx = append(cidx, v)
			// A random loop-free-ish path: `hops` distinct edges.
			seen := map[int]bool{}
			for h := 0; h < hops; h++ {
				e := rng.Intn(edges)
				for seen[e] {
					e = rng.Intn(edges)
				}
				seen[e] = true
				edgeRows[e] = append(edgeRows[e], v)
				edgeVals[e] = append(edgeVals[e], 1)
			}
		}
		ones := make([]float64, len(cidx))
		for i := range ones {
			ones[i] = 1
		}
		p.AddConstraint(cidx, ones, lp.LE, demand, "")
	}
	// Capacities sized so a meaningful fraction of demand is routable.
	capScale := float64(commodities*paths*hops) / float64(edges)
	for e := 0; e < edges; e++ {
		if len(edgeRows[e]) == 0 {
			continue
		}
		p.AddConstraint(edgeRows[e], edgeVals[e], lp.LE, capScale*(0.2+rng.Float64()), "")
	}
	return p
}

// Cluster builds a max-min fairness space-sharing LP: x[j][r] is job j's
// allocation on resource type r, t is the epigraph variable maximized
// subject to every job's normalized throughput reaching t.
func Cluster(s Size, seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed + 1))
	jobs := pick(s, 60, 250, 700)
	types := 4

	p := lp.NewProblem(lp.Maximize)
	t := p.AddVariable(1, -lp.Inf, lp.Inf, "t")
	typeRows := make([][]int, types)
	typeVals := make([][]float64, types)
	for j := 0; j < jobs; j++ {
		idx := []int{t}
		val := []float64{-1}
		for r := 0; r < types; r++ {
			v := p.AddVariable(0, 0, 1, "")
			// Normalized throughput of job j on type r.
			thr := 0.2 + rng.Float64()
			idx = append(idx, v)
			val = append(val, thr)
			typeRows[r] = append(typeRows[r], v)
			typeVals[r] = append(typeVals[r], 1)
		}
		p.AddConstraint(idx, val, lp.GE, 0, "")
	}
	for r := 0; r < types; r++ {
		capacity := float64(jobs) / float64(types) * (0.5 + rng.Float64()*0.5)
		p.AddConstraint(typeRows[r], typeVals[r], lp.LE, capacity, "")
	}
	return p
}

// LB builds a fractional shard-assignment LP: x[i][k] routes shard i's
// queries to server k, each shard fully routed, per-server load banded,
// minimizing data movement off the current placement.
func LB(s Size, seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed + 2))
	shards := pick(s, 80, 300, 800)
	servers := pick(s, 8, 16, 32)

	p := lp.NewProblem(lp.Minimize)
	loads := make([]float64, shards)
	total := 0.0
	for i := range loads {
		loads[i] = 0.5 + rng.Float64()*4
		total += loads[i]
	}
	band := total / float64(servers) * 1.1
	srvRows := make([][]int, servers)
	srvVals := make([][]float64, servers)
	for i := 0; i < shards; i++ {
		home := rng.Intn(servers)
		var idx []int
		ones := make([]float64, servers)
		for k := 0; k < servers; k++ {
			cost := loads[i]
			if k == home {
				cost = 0 // staying put moves no bytes
			}
			v := p.AddVariable(cost, 0, 1, "")
			idx = append(idx, v)
			ones[k] = 1
			srvRows[k] = append(srvRows[k], v)
			srvVals[k] = append(srvVals[k], loads[i])
		}
		p.AddConstraint(idx, ones, lp.EQ, 1, "")
	}
	for k := 0; k < servers; k++ {
		p.AddConstraint(srvRows[k], srvVals[k], lp.LE, band, "")
	}
	return p
}
