// Package lb implements the query load-balancing case study from §4.3 of
// the POP paper (after E-Store/Accordion): assign data shards to servers so
// every server's query load stays within a tolerance of the system average,
// while minimizing the bytes of shard data moved from the previous
// placement. The exact formulation is a mixed-integer linear program solved
// with package milp; the baselines are the E-Store-style greedy
// (SolveGreedy) and the POP adapter (SolvePOP).
package lb

import (
	"fmt"
	"math"
	"math/rand"

	"pop/internal/lp"
	"pop/internal/milp"
)

// Shard is a collection of data items (a POP client): Load is its current
// query rate, Mem its storage footprint.
type Shard struct {
	ID   int
	Load float64
	Mem  float64
}

// Server is a storage node (a POP resource).
type Server struct {
	ID     int
	MemCap float64
}

// Instance is one balancing round: shards with fresh loads, servers, the
// current placement, and the load tolerance.
type Instance struct {
	Shards  []Shard
	Servers []Server
	// Placement[i][j] reports whether shard i is currently materialized on
	// server j (the matrix T in §4.3).
	Placement [][]bool
	// TolFrac is ε expressed as a fraction of the average server load L:
	// every server must end within [L-ε·L, L+ε·L]. The paper's experiments
	// use 5%.
	TolFrac float64
}

// AvgLoad returns L, the average per-server load.
func (inst *Instance) AvgLoad() float64 {
	total := 0.0
	for _, s := range inst.Shards {
		total += s.Load
	}
	return total / float64(len(inst.Servers))
}

// Assignment is the result of a balancing solve.
type Assignment struct {
	// Frac[i][j] is the fraction of shard i's queries served by server j.
	Frac [][]float64
	// Placed[i][j] reports whether shard i is materialized on server j
	// after the move (the indicator A' in §4.3).
	Placed [][]bool
	// Movements counts new materializations: placements with Placed=true
	// where the shard was not already on that server.
	Movements int
	// MovedBytes is the MILP objective: Σ (1-T_ij)·Placed_ij·Mem_i.
	MovedBytes float64
	// MaxDeviation is max_j |load_j - L| / L after the assignment.
	MaxDeviation float64
	// Variables is the solver's variable count (0 for the greedy).
	Variables int
	// Optimal reports whether the solver proved optimality (greedy: false).
	Optimal bool
	// Search is the branch-and-bound accounting of the solve (zero for the
	// greedy and the LP rounding; POP sums its sub-searches).
	Search milp.SearchStats
}

// NewInstance builds an instance with every shard initially placed on a
// server round-robin and uniform memory capacities sized with headroom.
func NewInstance(numShards, numServers int, tolFrac float64, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := &Instance{TolFrac: tolFrac}
	totalMem := 0.0
	for i := 0; i < numShards; i++ {
		mem := 0.5 + rng.Float64()
		totalMem += mem
		inst.Shards = append(inst.Shards, Shard{
			ID:   i,
			Load: shardLoad(rng, i),
			Mem:  mem,
		})
	}
	memCap := totalMem / float64(numServers) * 3 // generous headroom
	for j := 0; j < numServers; j++ {
		inst.Servers = append(inst.Servers, Server{ID: j, MemCap: memCap})
	}
	inst.Placement = make([][]bool, numShards)
	for i := range inst.Placement {
		inst.Placement[i] = make([]bool, numServers)
		inst.Placement[i][i%numServers] = true
	}
	return inst
}

// shardLoad draws a zipf-flavoured load: a few shards are hot.
func shardLoad(rng *rand.Rand, _ int) float64 {
	u := rng.Float64()
	return 0.2 + math.Pow(1-u, -1/1.5) - 0.5
}

// ShiftLoads produces the next round's loads: multiplicative jitter around
// the current values plus occasional hot-spot spikes. The tolerance band is
// relative to the new average, so no renormalization is needed.
func (inst *Instance) ShiftLoads(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range inst.Shards {
		f := math.Exp(rng.NormFloat64() * 0.25)
		if rng.Float64() < 0.02 {
			f *= 4 // hot spike
		}
		inst.Shards[i].Load *= f
	}
}

// BuildMILP constructs the §4.3 formulation over inst:
//
//	minimize  Σ_ij (1-T_ij)·M_ij·Mem_i
//	s.t.      L-ε ≤ Σ_i A_ij·Load_i ≤ L+ε      ∀ servers j
//	          Σ_j A_ij = 1                       ∀ shards i
//	          Σ_i M_ij·Mem_i ≤ MemCap_j          ∀ servers j
//	          A_ij ≤ M_ij,  M binary, A ∈ [0,1]
//
// It returns the problem plus the A and M variable index matrices
// (aVar[i][j], mVar[i][j]). The builder is shared by SolveMILP, the
// stateful MILPSolver, the equivalence suite, and BenchmarkSearch, so every
// consumer sees the identical variable and row order — which is what lets a
// basis snapshot from one round's relaxation seed the next round's search.
func BuildMILP(inst *Instance) (prob *milp.Problem, aVar, mVar [][]int) {
	n, m := len(inst.Shards), len(inst.Servers)
	L := inst.AvgLoad()
	eps := inst.TolFrac * L

	prob = milp.NewProblem(lp.Minimize)
	aVar = make([][]int, n)
	mVar = make([][]int, n)
	for i := 0; i < n; i++ {
		aVar[i] = make([]int, m)
		mVar[i] = make([]int, m)
		for j := 0; j < m; j++ {
			aVar[i][j] = prob.LP.AddVariable(0, 0, 1, "")
			cost := inst.Shards[i].Mem
			if inst.Placement[i][j] {
				cost = 0
			}
			mVar[i][j] = prob.AddBinary(cost, "")
		}
	}
	// Linking: A ≤ M.
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			prob.LP.AddConstraint([]int{aVar[i][j], mVar[i][j]}, []float64{1, -1}, lp.LE, 0, "link")
		}
	}
	// Shard coverage.
	for i := 0; i < n; i++ {
		coef := make([]float64, m)
		for j := range coef {
			coef[j] = 1
		}
		prob.LP.AddConstraint(aVar[i], coef, lp.EQ, 1, "cover")
	}
	// Load band and memory per server.
	for j := 0; j < m; j++ {
		idxs := make([]int, n)
		loads := make([]float64, n)
		mems := make([]float64, n)
		midx := make([]int, n)
		for i := 0; i < n; i++ {
			idxs[i] = aVar[i][j]
			loads[i] = inst.Shards[i].Load
			midx[i] = mVar[i][j]
			mems[i] = inst.Shards[i].Mem
		}
		prob.LP.AddConstraint(idxs, loads, lp.LE, L+eps, "loadhi")
		prob.LP.AddConstraint(idxs, loads, lp.GE, L-eps, "loadlo")
		prob.LP.AddConstraint(midx, mems, lp.LE, inst.Servers[j].MemCap, "mem")
	}
	return prob, aVar, mVar
}

// SolveMILP solves the §4.3 formulation exactly (subject to opts limits).
// A warm-start incumbent from the greedy is installed automatically; the
// returned Assignment carries the search's SearchStats. For round
// sequences, MILPSolver additionally threads each round's root-relaxation
// basis into the next round's search.
func SolveMILP(inst *Instance, opts milp.Options) (*Assignment, error) {
	a, _, err := solveMILP(inst, opts)
	return a, err
}

// solveMILP is SolveMILP plus the root-relaxation basis, which the stateful
// MILPSolver feeds back as the next round's milp.Options.RootBasis.
func solveMILP(inst *Instance, opts milp.Options) (*Assignment, *lp.Basis, error) {
	n, m := len(inst.Shards), len(inst.Servers)
	if n == 0 || m == 0 {
		return nil, nil, fmt.Errorf("lb: empty instance")
	}
	prob, aVar, mVar := BuildMILP(inst)

	// Warm start from the greedy solution.
	if opts.Incumbent == nil {
		greedy := SolveGreedy(inst)
		if greedy.MaxDeviation <= inst.TolFrac+1e-9 {
			x := make([]float64, prob.LP.NumVariables())
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					x[aVar[i][j]] = greedy.Frac[i][j]
					if greedy.Placed[i][j] {
						x[mVar[i][j]] = 1
					}
				}
			}
			opts.Incumbent = x
		}
	}

	sol, err := prob.SolveWithOptions(opts)
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != milp.Optimal && sol.Status != milp.Feasible {
		// Node/time-limited search with no incumbent (or an infeasible
		// band): fall back to the greedy best effort, marked non-optimal.
		g := SolveGreedy(inst)
		g.Optimal = false
		g.Search = sol.SearchStats
		return g, sol.RootBasis, nil
	}

	out := &Assignment{
		Frac:      make([][]float64, n),
		Placed:    make([][]bool, n),
		Variables: prob.LP.NumVariables(),
		Optimal:   sol.Status == milp.Optimal,
		Search:    sol.SearchStats,
	}
	for i := 0; i < n; i++ {
		out.Frac[i] = make([]float64, m)
		out.Placed[i] = make([]bool, m)
		for j := 0; j < m; j++ {
			out.Frac[i][j] = sol.X[aVar[i][j]]
			out.Placed[i][j] = sol.X[mVar[i][j]] > 0.5
		}
	}
	finalizeAssignment(inst, out)
	return out, sol.RootBasis, nil
}

// MILPSolver is a stateful exact solver for round sequences: each round's
// search emits its root-relaxation basis, and the next round — the same
// formulation with drifted loads and costs — seeds its root with it
// (milp.Options.RootBasis), so the first factorization of every round after
// the first starts from last round's optimal basis instead of from scratch.
// A snapshot that no longer fits (the instance changed shape) is dropped by
// the root's lp.Model, so the seeding never changes outcomes.
type MILPSolver struct {
	opts      milp.Options
	rootBasis *lp.Basis
}

// NewMILPSolver returns a stateful exact solver; opts applies to every
// round (opts.RootBasis is overwritten with the threaded basis).
func NewMILPSolver(opts milp.Options) *MILPSolver {
	return &MILPSolver{opts: opts}
}

// Solve runs one balancing round, seeding the search with the previous
// round's root basis. It has the Solver signature for RunRounds.
func (s *MILPSolver) Solve(inst *Instance) (*Assignment, error) {
	opts := s.opts
	opts.RootBasis = s.rootBasis
	a, basis, err := solveMILP(inst, opts)
	if err != nil {
		return nil, err
	}
	if basis != nil {
		s.rootBasis = basis
	}
	return a, nil
}

// finalizeAssignment computes Movements, MovedBytes, and MaxDeviation.
func finalizeAssignment(inst *Instance, a *Assignment) {
	n, m := len(inst.Shards), len(inst.Servers)
	L := inst.AvgLoad()
	a.Movements = 0
	a.MovedBytes = 0
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if a.Placed[i][j] && !inst.Placement[i][j] {
				a.Movements++
				a.MovedBytes += inst.Shards[i].Mem
			}
		}
	}
	a.MaxDeviation = 0
	for j := 0; j < m; j++ {
		load := 0.0
		for i := 0; i < n; i++ {
			load += a.Frac[i][j] * inst.Shards[i].Load
		}
		if dev := math.Abs(load-L) / L; dev > a.MaxDeviation {
			a.MaxDeviation = dev
		}
	}
}

// VerifyFeasible checks coverage, linking, memory, and (approximate) load
// band.
func VerifyFeasible(inst *Instance, a *Assignment, tol float64) error {
	n, m := len(inst.Shards), len(inst.Servers)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < m; j++ {
			f := a.Frac[i][j]
			if f < -tol {
				return fmt.Errorf("lb: negative fraction shard %d server %d", i, j)
			}
			if f > tol && !a.Placed[i][j] {
				return fmt.Errorf("lb: shard %d serves from %d without placement", i, j)
			}
			sum += f
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("lb: shard %d coverage %g != 1", i, sum)
		}
	}
	for j := 0; j < m; j++ {
		mem := 0.0
		for i := 0; i < n; i++ {
			if a.Placed[i][j] {
				mem += inst.Shards[i].Mem
			}
		}
		if mem > inst.Servers[j].MemCap+tol*(1+inst.Servers[j].MemCap) {
			return fmt.Errorf("lb: server %d memory %g > %g", j, mem, inst.Servers[j].MemCap)
		}
	}
	return nil
}
