package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Allocation-shaped model builders for the refactor tests and benchmarks.
// They mirror the formulations the case studies hand to this package
// (lp/gen cannot be imported from an internal test).

// clusterShapedLP is the max-min space-sharing LP in online's block layout:
// per job a time row (Σ_r x ≤ 1) and an epigraph row (Σ_r thr·x − t ≥ 0),
// then one capacity row per resource type; m = 2·jobs + types.
func clusterShapedLP(jobs, types int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(Maximize)
	for v := 0; v < jobs*types; v++ {
		p.AddVariable(0, 0, 1, "")
	}
	tv := p.AddVariable(1, math.Inf(-1), Inf, "t")
	ones := make([]float64, types)
	for r := range ones {
		ones[r] = 1
	}
	scale := make([]float64, jobs)
	for j := 0; j < jobs; j++ {
		vars := make([]int, types, types+1)
		thr := make([]float64, types, types+1)
		for r := 0; r < types; r++ {
			vars[r] = j*types + r
			thr[r] = 0.2 + rng.Float64()
		}
		scale[j] = float64(1 + rng.Intn(4))
		p.AddConstraint(vars, ones, LE, 1, "")
		p.AddConstraint(append(vars, tv), append(thr, -1), GE, 0, "")
	}
	for r := 0; r < types; r++ {
		idx := make([]int, jobs)
		for j := range idx {
			idx[j] = j*types + r
		}
		p.AddConstraint(idx, scale, LE, float64(jobs)/float64(types)*(0.5+rng.Float64()*0.5), "")
	}
	return p
}

// clusterVertexBasis returns the columns of a vertex-shaped basis of
// clusterShapedLP(jobs, types, ·) without solving it, so the m ≈ 10⁴ cases
// cost nothing to set up: t, one allocation variable per job, the job's
// time slack — or, for one job in ten, a second allocation variable with
// the time row tight — and the capacity slacks of every type but the
// first, whose tight row fixes t.
func clusterVertexBasis(jobs, types int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	n := jobs*types + 1
	basis := []int{n - 1}
	for j := 0; j < jobs; j++ {
		r := rng.Intn(types)
		basis = append(basis, j*types+r)
		if rng.Intn(10) == 0 {
			basis = append(basis, j*types+(r+1+rng.Intn(types-1))%types)
		} else {
			basis = append(basis, n+2*j)
		}
	}
	for r := 1; r < types; r++ {
		basis = append(basis, n+2*jobs+r)
	}
	return basis
}

// lbShapedLP is the relaxation of lb.BuildMILP: A_ij ≤ M_ij link rows,
// Σ_j A_ij = 1 cover rows, and a load band plus a memory row per server.
func lbShapedLP(shards, servers int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(Minimize)
	load := make([]float64, shards)
	mem := make([]float64, shards)
	total := 0.0
	for i := range load {
		load[i] = 0.5 + rng.Float64()*4
		mem[i] = 1 + rng.Float64()*3
		total += load[i]
	}
	a := func(i, j int) int { return 2 * (i*servers + j) }
	for i := 0; i < shards; i++ {
		home := rng.Intn(servers)
		for j := 0; j < servers; j++ {
			p.AddVariable(0, 0, 1, "")
			cost := mem[i]
			if j == home {
				cost = 0
			}
			p.AddVariable(cost, 0, 1, "")
		}
	}
	for i := 0; i < shards; i++ {
		for j := 0; j < servers; j++ {
			p.AddConstraint([]int{a(i, j), a(i, j) + 1}, []float64{1, -1}, LE, 0, "")
		}
	}
	ones := make([]float64, servers)
	for j := range ones {
		ones[j] = 1
	}
	for i := 0; i < shards; i++ {
		idx := make([]int, servers)
		for j := range idx {
			idx[j] = a(i, j)
		}
		p.AddConstraint(idx, ones, EQ, 1, "")
	}
	avg := total / float64(servers)
	for j := 0; j < servers; j++ {
		aidx := make([]int, shards)
		midx := make([]int, shards)
		for i := range aidx {
			aidx[i] = a(i, j)
			midx[i] = a(i, j) + 1
		}
		p.AddConstraint(aidx, load, LE, 1.05*avg, "")
		p.AddConstraint(aidx, load, GE, 0.95*avg, "")
		p.AddConstraint(midx, mem, LE, 5*float64(shards)/float64(servers), "")
	}
	return p
}

// teShapedLP is the path-based max-flow LP of lp/gen.TE: four 4-hop paths
// per commodity, a demand row per commodity and a capacity row per edge.
func teShapedLP(commodities, edges int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	const paths, hops = 4, 4
	p := NewProblem(Maximize)
	edgeVars := make([][]int, edges)
	for c := 0; c < commodities; c++ {
		var cidx []int
		for k := 0; k < paths; k++ {
			v := p.AddVariable(1, 0, Inf, "")
			cidx = append(cidx, v)
			for _, e := range rng.Perm(edges)[:hops] {
				edgeVars[e] = append(edgeVars[e], v)
			}
		}
		p.AddConstraint(cidx, []float64{1, 1, 1, 1}, LE, 1+rng.Float64()*9, "")
	}
	capScale := float64(commodities*paths*hops) / float64(edges)
	for e := range edgeVars {
		if len(edgeVars[e]) == 0 {
			continue
		}
		ones := make([]float64, len(edgeVars[e]))
		for i := range ones {
			ones[i] = 1
		}
		p.AddConstraint(edgeVars[e], ones, LE, capScale*(0.2+rng.Float64()), "")
	}
	return p
}

// phase1Simplex standardizes p and stops at the all-slack/artificial start,
// ready to have s.basis overwritten with the basis under test.
func phase1Simplex(p *Problem, opts Options) *simplex {
	s := newSimplex(p, opts)
	s.initPhase1()
	return s
}

// refactorCase names a basis to factorize: the simplex holding it.
type refactorCase struct {
	name string
	s    *simplex
}

// clusterCases are synthetic cluster vertices at the sub-LP size serve-lp
// runs (jobs = 300, m ≈ 600) and multiples of it.
func clusterCases(clusterJobs ...int) []refactorCase {
	var cases []refactorCase
	for _, jobs := range clusterJobs {
		s := phase1Simplex(clusterShapedLP(jobs, 4, 1), Options{})
		copy(s.basis, clusterVertexBasis(jobs, 4, 1))
		cases = append(cases, refactorCase{fmt.Sprintf("cluster-%d", jobs), s})
	}
	return cases
}

// solvedCases are the optimal bases of an lb and a te model.
func solvedCases(tb testing.TB) []refactorCase {
	var cases []refactorCase
	for _, c := range []struct {
		name string
		p    *Problem
	}{
		{"lb-48x12", lbShapedLP(48, 12, 1)},
		{"te-250", teShapedLP(250, 170, 1)},
	} {
		s := newSimplex(c.p, Options{})
		if sol := s.solve(); sol.Status != Optimal {
			tb.Fatalf("%s: setup solve status %v", c.name, sol.Status)
		}
		cases = append(cases, refactorCase{c.name, s})
	}
	return cases
}

// BenchmarkRefactor times one from-scratch factorization per op on a fresh
// factor, the way every warm re-solve and branch-and-bound node pays for it.
func BenchmarkRefactor(b *testing.B) {
	for _, c := range append(clusterCases(300, 1200, 4800), solvedCases(b)...) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(c.s.m), "rows")
			for i := 0; i < b.N; i++ {
				if !newLUFactor(c.s).refactor() {
					b.Fatal("singular")
				}
			}
		})
	}
}
