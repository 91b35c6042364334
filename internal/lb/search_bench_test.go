package lb

import (
	"fmt"
	"testing"

	"pop/internal/milp"
)

// BenchmarkSearch times the exact branch and bound on §4.3-shaped MILPs (the
// problem whose exponential solve time motivates POP): the persistent-model
// search (warm: each node a dual-simplex re-solve from its parent's basis)
// against the cold-per-node baseline (milp.Options.ColdNodes). No greedy
// incumbent is installed, so the tree is the formulation's own. One op is
// one search; nodes, LP pivots and the share of nodes that started warm are
// reported per search (all deterministic). That both variants reach the
// same optimum is the job of milp's equivalence suites, not of this
// benchmark.
func BenchmarkSearch(b *testing.B) {
	for _, mode := range []string{"warm", "cold"} {
		for _, sz := range []struct{ shards, servers int }{{10, 3}, {14, 4}, {18, 5}, {24, 6}} {
			b.Run(fmt.Sprintf("%s/%dx%d", mode, sz.shards, sz.servers), func(b *testing.B) {
				inst := NewInstance(sz.shards, sz.servers, 0.05, 1)
				inst.ShiftLoads(2)
				prob, _, _ := BuildMILP(inst)
				opts := milp.Options{MaxNodes: 20000, ColdNodes: mode == "cold"}
				var st milp.SearchStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sol, err := prob.SolveWithOptions(opts)
					if err != nil {
						b.Fatal(err)
					}
					if sol.Status != milp.Optimal {
						b.Fatalf("search ended %v", sol.Status)
					}
					st.Add(sol.SearchStats)
				}
				n := float64(b.N)
				b.ReportMetric(float64(st.Nodes)/n, "nodes/search")
				b.ReportMetric(float64(st.LPPivots)/n, "pivots/search")
				b.ReportMetric(100*float64(st.WarmNodes)/float64(max(1, st.Nodes)), "warmnode%")
			})
		}
	}
}
