package lb

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pop/internal/core"
	"pop/internal/milp"
)

// coverageTol is the bound batch-lb verifies shard coverage at today
// (bench's lbVerifyTol). The repository's own invariant is 1e-6; the fix
// for the defect below ends by setting this constant to that, and until
// then doing so makes this test fail on the case it logs.
const coverageTol = 2e-3

// coverageError is the largest |Σ_j Frac[i][j] − 1| over shards, and the
// shard it occurs at.
func coverageError(a *Assignment) (worst float64, shard int) {
	for i, row := range a.Frac {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if e := math.Abs(sum - 1); e > worst {
			worst, shard = e, i
		}
	}
	return worst, shard
}

// TestPOPCoverageDefect replays the rounds batch-lb plays — 48 shards on 12
// servers at 5% tolerance, K=4, a 400-node cap, instance i seeded i+1 and
// its POP partition and load shifts seeded 2000+i — over the pinned range
// i = 24..27, which contains the open defect ROADMAP records under PR 12:
// instance 26's first round returns a hot shard whose fractions sum to
// 0.99943 instead of 1. The error is inside one MILP sub-solve (ROADMAP:
// it also shows under milp.Options.ColdNodes, which points at lp), so the
// offending sub-problem is rebuilt and re-solved alone here, its shape
// logged, and under -v its relaxation written as MPS for cmd/popsolve.
// Reading a popsolve run of that file: `popsolve -relax` solves it with
// lp.Options{Scale: true}, and no caller on the lb/milp path sets Scale
// (milp.Options.LP is never assigned), so that run is not a replay of the
// configuration the defect shows under — and tolerances applied in scaled
// space cannot be what produces it here.
//
// The sparse refactorization rewrite that added this test computes factors
// bit-identical to its predecessor's, so it must not — and does not — move
// the logged number; the test exists so the lp fix starts from a failing
// test one constant away.
func TestPOPCoverageDefect(t *testing.T) {
	const k = 4
	milpOpts := milp.Options{MaxNodes: 400, Workers: 1}
	worst, worstInst, worstShard := 0.0, (*Instance)(nil), -1
	var worstSeed int64
	for i := 24; i < 28; i++ {
		inst := NewInstance(48, 12, 0.05, int64(i+1))
		seed := int64(2000 + i)
		for r := 0; r < 2; r++ {
			inst.ShiftLoads(seed + int64(r)*101)
			a, err := SolvePOP(inst, core.Options{K: k, Seed: seed, Parallel: true}, milpOpts)
			if err != nil {
				t.Fatalf("instance %d round %d: %v", i, r, err)
			}
			if err := VerifyFeasible(inst, a, coverageTol); err != nil {
				t.Errorf("instance %d round %d: %v", i, r, err)
			}
			if e, sh := coverageError(a); e > worst {
				worst, worstShard, worstSeed = e, sh, seed
				// ShiftLoads edits Shards in place; Placement is replaced.
				worstInst = &Instance{Shards: append([]Shard(nil), inst.Shards...), Servers: inst.Servers, Placement: inst.Placement, TolFrac: inst.TolFrac}
			}
			inst.Placement = a.Placed
		}
	}
	t.Logf("worst coverage error %.6g (bound %g)", worst, coverageTol)
	if worst <= 1e-6 {
		t.Log("the defect did not show on this platform or has been fixed: tighten coverageTol to 1e-6")
		return
	}

	// Rebuild the sub-problem SolvePOP handed the hot shard to.
	shardGroups := balancedShardPartition(worstInst, k, worstSeed)
	serverGroups := core.Partition(len(worstInst.Servers), k, core.RoundRobin, worstSeed, nil)
	for p, group := range shardGroups {
		sub := &Instance{TolFrac: worstInst.TolFrac}
		hot := false
		for _, i := range group {
			hot = hot || i == worstShard
			sub.Shards = append(sub.Shards, worstInst.Shards[i])
			row := make([]bool, 0, len(serverGroups[p]))
			for _, j := range serverGroups[p] {
				row = append(row, worstInst.Placement[i][j])
			}
			sub.Placement = append(sub.Placement, row)
		}
		if !hot {
			continue
		}
		for _, j := range serverGroups[p] {
			sub.Servers = append(sub.Servers, worstInst.Servers[j])
		}
		sa, err := SolveMILP(sub, milpOpts)
		if err != nil {
			t.Fatal(err)
		}
		subWorst, _ := coverageError(sa)
		prob, _, mVar := BuildMILP(sub)
		t.Logf("offending sub-problem %d: %d shards × %d servers, relaxation %d rows × %d columns, %d nonzeros; solved alone its coverage error is %.6g",
			p, len(sub.Shards), len(sub.Servers), prob.LP.NumConstraints(), prob.LP.NumVariables(), prob.LP.NumNonzeros(), subWorst)
		if testing.Verbose() {
			var ints []int
			for _, row := range mVar {
				ints = append(ints, row...)
			}
			path := filepath.Join(t.TempDir(), "lb-coverage-defect.mps")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := prob.LP.WriteMPS(f, "LBCOVER", ints); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
		}
	}
}
