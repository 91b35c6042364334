package lp

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestMain runs the package's whole suite — equivalence, warm start, dual,
// clone, Forrest–Tomlin — with every released workspace poisoned, so a solve
// that trusted what a previous one left in a pooled buffer fails the test it
// runs in. Benchmarks keep the production path.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.bench"); f == nil || f.Value.String() == "" {
		releaseHook = (*workspace).poison
	}
	os.Exit(m.Run())
}

// solveOn runs one solve of (a copy of) std on the given workspace, the way
// solveStd does on a pooled one, and leaves the workspace poisoned.
func solveOn(ws *workspace, std *standardized, opts Options) *Solution {
	s := newSimplexStd(std.clone(), opts)
	s.workspace = ws
	sol := s.solve()
	ws.lu.s = nil
	ws.poison()
	return sol
}

// diffSolutions reports the first field in which two solutions differ, bit
// for bit.
func diffSolutions(got, want *Solution) error {
	switch {
	case got.Status != want.Status:
		return fmt.Errorf("status %v, want %v", got.Status, want.Status)
	case got.Iterations != want.Iterations || got.DualPivots != want.DualPivots:
		return fmt.Errorf("pivots %d (%d dual), want %d (%d dual)", got.Iterations, got.DualPivots, want.Iterations, want.DualPivots)
	case got.WarmStarted != want.WarmStarted:
		return fmt.Errorf("warm started %v, want %v", got.WarmStarted, want.WarmStarted)
	case math.Float64bits(got.Objective) != math.Float64bits(want.Objective):
		return fmt.Errorf("objective %v, want %v", got.Objective, want.Objective)
	case !sameBits(got.X, want.X):
		return fmt.Errorf("X differs")
	case !sameBits(got.Dual, want.Dual):
		return fmt.Errorf("Dual differs")
	case !sameBits(got.ReducedCost, want.ReducedCost):
		return fmt.Errorf("ReducedCost differs")
	case !reflect.DeepEqual(got.Basis, want.Basis):
		return fmt.Errorf("Basis differs")
	}
	return nil
}

var workspaceOptionSets = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"dense+scale", Options{dense: true, Scale: true}},
	{"bland+reinvert", Options{blandOnly: true, reinvertEvery: 7}},
}

// TestWorkspaceRecycledMatchesFresh: a large cold solve followed by a small
// warm one through the same workspace equals the small one on a fresh
// workspace bit for bit — across option sets, so that weights, candidate
// lists and factor state a previous solve used (and this one does not, or
// the other way round) are all covered — on the primal warm path and on the
// dual path.
func TestWorkspaceRecycledMatchesFresh(t *testing.T) {
	large := clusterShapedLP(120, 3, 1).standardize(nil)
	base := clusterShapedLP(20, 3, 2)
	cold := solveOn(new(workspace), base.standardize(nil), Options{})
	if cold.Status != Optimal {
		t.Fatalf("setup solve: %v", cold.Status)
	}
	// Two small re-solves from that basis: capacities moved (rhs only: the
	// dual path) and a job's throughputs rewritten (the primal warm path).
	rhsOnly := base.Clone()
	for i := 40; i < 43; i++ {
		rhsOnly.rows[i].rhs *= 0.7
	}
	coeffs := base.Clone()
	for t := range coeffs.rows[5].val[:3] {
		coeffs.rows[5].val[t] *= 1.5
	}
	for _, small := range []struct {
		name string
		p    *Problem
		dual bool
	}{{"rhs-only/dual", rhsOnly, true}, {"coefficients/primal-warm", coeffs, false}} {
		std := small.p.standardize(nil)
		for _, first := range workspaceOptionSets {
			for _, second := range workspaceOptionSets {
				opts := second.opts
				opts.WarmBasis, opts.Dual = cold.Basis, small.dual
				want := solveOn(new(workspace), std, opts)
				if want.Status != Optimal || !want.WarmStarted {
					t.Fatalf("%s/%s: fresh solve %v, warm %v", small.name, second.name, want.Status, want.WarmStarted)
				}
				ws := new(workspace)
				if big := solveOn(ws, large, first.opts); big.Status != Optimal {
					t.Fatalf("large solve under %s: %v", first.name, big.Status)
				}
				if err := diffSolutions(solveOn(ws, std, opts), want); err != nil {
					t.Errorf("%s under %s after a large solve under %s: %v", small.name, second.name, first.name, err)
				}
			}
		}
	}
}

// TestWorkspaceSurvivesFailedSolves: solves that end every other way —
// iteration limit, infeasible, unbounded, non-finite data (Numerical), a
// singular warm basis rejected for a cold start — leave a workspace the next
// solve can use as if it were new.
func TestWorkspaceSurvivesFailedSolves(t *testing.T) {
	infeasible := NewProblem(Minimize)
	x := infeasible.AddVariable(1, 0, 1, "x")
	infeasible.AddConstraint([]int{x}, []float64{1}, GE, 2, "")

	unbounded := NewProblem(Maximize)
	y := unbounded.AddVariable(1, 0, Inf, "y")
	z := unbounded.AddVariable(0, 0, Inf, "z")
	unbounded.AddConstraint([]int{y, z}, []float64{1, -1}, LE, 1, "")

	nonFinite := clusterShapedLP(8, 3, 3)
	nonFinite.rows[3].rhs = math.Inf(1)

	singular := &Basis{VarStatus: make([]BasisStatus, 61), SlackStatus: make([]BasisStatus, 43)}
	for i := range singular.SlackStatus {
		singular.SlackStatus[i] = BasisLower
	}
	for j := 43; j < 61; j++ {
		singular.VarStatus[j] = BasisLower // 43 basic columns of jobs 0..14: rank deficient
	}

	reference := clusterShapedLP(20, 3, 2).standardize(nil)
	want := solveOn(new(workspace), reference, Options{})

	ws := new(workspace)
	for _, c := range []struct {
		name   string
		p      *Problem
		opts   Options
		status Status
	}{
		{"iteration limit", clusterShapedLP(60, 3, 4), Options{MaxIters: 5}, IterLimit},
		{"infeasible", infeasible, Options{}, Infeasible},
		{"unbounded", unbounded, Options{}, Unbounded},
		{"non-finite rhs", nonFinite, Options{}, Numerical},
		{"non-finite rhs, dense", nonFinite, Options{dense: true}, Numerical},
		{"singular warm basis", clusterShapedLP(20, 3, 5), Options{WarmBasis: singular, Dual: true}, Optimal},
	} {
		sol := solveOn(ws, c.p.standardize(nil), c.opts)
		if sol.Status != c.status {
			t.Fatalf("%s: status %v, want %v", c.name, sol.Status, c.status)
		}
		if c.opts.WarmBasis != nil && sol.WarmStarted {
			t.Fatalf("%s: warm start accepted", c.name)
		}
		if err := diffSolutions(solveOn(ws, reference, Options{}), want); err != nil {
			t.Fatalf("after %s: %v", c.name, err)
		}
	}
}

// TestWorkspaceReleasedOncePerAttempt: the public entry points hand back one
// workspace per simplex attempt — the sparse attempt and the dense retry of
// a Numerical solve each return theirs — and a solve that panics hands back
// none: what it was writing is left to the garbage collector.
func TestWorkspaceReleasedOncePerAttempt(t *testing.T) {
	prev := releaseHook
	defer func() { releaseHook = prev }()
	released := 0
	releaseHook = func(ws *workspace) {
		released++
		ws.poison()
	}

	nonFinite := clusterShapedLP(8, 3, 3)
	nonFinite.rows[3].rhs = math.Inf(1)
	sol, err := nonFinite.Solve()
	if err != nil || sol.Status != Numerical {
		t.Fatalf("non-finite rhs: %v, %v", sol.Status, err)
	}
	if released != 2 {
		t.Fatalf("Numerical then dense retry released %d workspaces, want 2", released)
	}
	m := NewModelFromProblem(nonFinite)
	if sol, err = m.Solve(); err != nil || sol.Status != Numerical {
		t.Fatalf("model with non-finite rhs: %v, %v", sol.Status, err)
	}
	if released != 4 {
		t.Fatalf("model retry: %d workspaces released in all, want 4", released)
	}

	corrupt := clusterShapedLP(8, 3, 3).standardize(nil)
	corrupt.rowInd[len(corrupt.rowInd)/2] = int32(corrupt.m + 5) // an entry in a row that does not exist
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("solve over a corrupt matrix did not panic")
			}
		}()
		solveStd(corrupt, Options{})
	}()
	if released != 4 {
		t.Fatalf("a panicking solve released its workspace (%d in all)", released)
	}

	good := clusterShapedLP(8, 3, 3)
	got, err := good.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := diffSolutions(got, solveOn(new(workspace), good.standardize(nil), Options{})); err != nil {
		t.Fatalf("solve after the failures: %v", err)
	}
}

// TestWarmResolveAllocations pins what a served re-solve allocates: a
// 300-block cluster model has one block spliced out and a new one spliced
// in, its capacity rows rewritten, and is re-solved warm. With the
// standardized form rebuilt in place, the stamp arrays in SetCoeffs and the
// solver workspace pooled, that costs the returned Solution, the spliced
// rows and a constant — not the O(rows) objects per solve of per-row maps
// and per-solve vectors (several thousand before).
func TestWarmResolveAllocations(t *testing.T) {
	const jobs, types = 300, 3
	m := NewModelFromProblem(clusterShapedLP(jobs, types, 1))
	if sol, err := m.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("setup solve: %v, %v", sol.Status, err)
	}
	vars, ones, thr := make([]int, types), make([]float64, types), make([]float64, types+1)
	capIdx, capVal := make([]int, jobs), make([]float64, jobs)
	round := 0
	resolve := func() {
		round++
		// The oldest job leaves, a new one joins at the end of the block
		// region (the epigraph variable and the capacity rows trail it).
		m.RemoveConstraints(0, 2)
		m.RemoveVariables(0, types)
		at := (jobs - 1) * types
		m.InsertVariables(at, types, 0, 0, 1)
		for r := range vars {
			vars[r], ones[r], thr[r] = at+r, 1, 0.3+0.01*float64((round+r)%50)
		}
		thr[types] = -1
		m.InsertConstraint(2*(jobs-1), vars, ones, LE, 1, "")
		m.InsertConstraint(2*(jobs-1)+1, append(vars, at+types), thr, GE, 0, "")
		for r := 0; r < types; r++ {
			for j := range capIdx {
				capIdx[j], capVal[j] = j*types+r, float64(1+(j+round)%4)
			}
			m.SetCoeffs(2*jobs+r, capIdx, capVal)
		}
		sol, err := m.Solve()
		if err != nil || sol.Status != Optimal || !sol.WarmStarted {
			t.Fatalf("round %d: %v, warm %v, %v", round, sol.Status, sol.WarmStarted, err)
		}
	}
	for i := 0; i < 3; i++ {
		resolve() // grow the reused buffers to their working size
	}
	if n := testing.AllocsPerRun(10, resolve); n > 64 {
		t.Fatalf("a warm re-solve after a one-block splice allocates %.0f objects; want O(1) beyond the Solution (≤ 64), not O(rows = %d)", n, m.NumConstraints())
	}
}
