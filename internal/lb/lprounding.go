package lb

import (
	"fmt"

	"pop/internal/lp"
)

// SolveLPRounding is the natural non-MILP baseline: solve the continuous
// relaxation of BuildMILP's §4.3 model (placement indicators in [0,1]) and
// materialize a shard on every server that serves any of its queries. At
// the relaxation's optimum the indicator equals the served fraction, so
// rounding up inflates the movement count — demonstrating why the paper's
// formulation needs integrality (and why its exponential solve cost, which
// POP attacks, cannot simply be relaxed away).
func SolveLPRounding(inst *Instance, opts lp.Options) (*Assignment, error) {
	n, m := len(inst.Shards), len(inst.Servers)
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("lb: empty instance")
	}
	prob, aVar, _ := BuildMILP(inst)

	sol, err := prob.LP.SolveWithOptions(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		g := SolveGreedy(inst)
		g.Optimal = false
		return g, nil
	}

	out := &Assignment{
		Frac:      make([][]float64, n),
		Placed:    make([][]bool, n),
		Variables: prob.LP.NumVariables(),
	}
	for i := 0; i < n; i++ {
		out.Frac[i] = make([]float64, m)
		out.Placed[i] = make([]bool, m)
		for j := 0; j < m; j++ {
			out.Frac[i][j] = sol.X[aVar[i][j]]
			out.Placed[i][j] = sol.X[aVar[i][j]] > 1e-6
		}
	}
	finalizeAssignment(inst, out)
	return out, nil
}
