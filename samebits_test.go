package pop_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"pop/internal/cluster"
	"pop/internal/lb"
	"pop/internal/lp"
	"pop/internal/milp"
	"pop/internal/obs"
	"pop/internal/online"
	"pop/internal/price"
	"pop/internal/shard"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

var update = flag.Bool("update", false, "rewrite testdata/samebits.golden from this run")

const sameBitsGolden = "testdata/samebits.golden"

// TestSameBits is the "no outcome changed" oracle. Each row runs one fixed,
// seeded workload and hashes every number it serves — FNV-64 over the
// float64 bit patterns, plus the solver's pivot or iteration counts — into
// one line of testdata/samebits.golden. A refactor or a speed-up must leave
// the file byte-identical; a change that moves outcomes on purpose rewrites
// it with -update and names the rows that moved. gc fuses x*y+z into FMA on
// arm64, ppc64le and s390x, so the golden is amd64's and other
// architectures skip.
//
// Rows: a 20-round churn sequence with a capacity change at round 10,
// through online.ClusterEngine under every policy at K ∈ {1, 4} (once with
// Rebalance, once with Parallel), through price.ClusterEngine, and through a
// sharded fleet of W ∈ {1, 2, 3} in-process max-min workers (K = 2 each)
// behind shard.NewLocalCoordinator, whose rows also hash the stale flags;
// and the exact solvers on small seeded instances (cluster max-min and
// makespan, te max-flow, three lb rounds through branch and bound), whose
// rows hash the objective, the solution and the pivot or node counts.
func TestSameBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden is amd64's; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var got []string
	for _, row := range sameBitsRows() {
		got = append(got, fmt.Sprintf("%s %016x", row.name, row.run(t)))
	}
	if *update {
		if err := os.WriteFile(sameBitsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(sameBitsGolden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestSameBits -update . to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		want[name] = sum
	}
	for _, line := range got {
		name, sum, _ := strings.Cut(line, " ")
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("row %s: not in %s", name, sameBitsGolden)
		case w != sum:
			t.Errorf("row %s: hash %s, golden %s", name, sum, w)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("row %s: in %s but no longer run", name, sameBitsGolden)
	}
}

type sameBitsRow struct {
	name string
	run  func(t *testing.T) uint64
}

func sameBitsRows() []sameBitsRow {
	var rows []sameBitsRow
	for _, policy := range []online.ClusterPolicy{online.MaxMinFairness, online.MinMakespan, online.SpaceSharing} {
		for _, k := range []int{1, 4} {
			for _, mode := range []string{"rebalance", "parallel"} {
				opts := online.Options{K: k, Rebalance: mode == "rebalance", Parallel: mode == "parallel"}
				rows = append(rows, sameBitsRow{
					name: fmt.Sprintf("online/%v/k=%d/%s", policy, k, mode),
					run: func(t *testing.T) uint64 {
						e, err := online.NewClusterEngine(churnPool, policy, opts)
						if err != nil {
							t.Fatal(err)
						}
						return hashChurn(t, e, func(h *bitHash) {
							s := e.Stats()
							h.int(s.Iterations)
							h.int(s.DualPivots)
						})
					},
				})
			}
		}
	}
	rows = append(rows, sameBitsRow{
		name: "price/max-min-fairness",
		run: func(t *testing.T) uint64 {
			e := price.NewClusterEngine(churnPool, price.Options{})
			return hashChurn(t, e, func(h *bitHash) {
				h.int(e.Stats().Iterations)
				h.int(0)
			})
		},
	})
	for w := 1; w <= 3; w++ {
		rows = append(rows, sameBitsRow{
			name: fmt.Sprintf("shard/w=%d", w),
			run: func(t *testing.T) uint64 {
				workers := make([]*shard.Worker, w)
				for i := range workers {
					b, err := shard.NewEngine(churnPool.Split(w), shard.EngineConfig{Policy: "maxmin", K: 2})
					if err != nil {
						t.Fatal(err)
					}
					workers[i] = shard.NewWorker(b, shard.WorkerOptions{})
				}
				c, err := shard.NewLocalCoordinator(workers, shard.CoordinatorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return hashChurn(t, c, func(h *bitHash) {
					for _, s := range c.LastStale() {
						h.bool(s)
					}
				})
			},
		})
	}
	return append(rows, exactRows()...)
}

// exactRows are the exact solvers' rows: each solves one small seeded
// instance through lp.Model and hashes the objective, the solution and the
// solver's work counts, so a change that moves a pivot anywhere on the
// cold, dual or branch-and-bound paths moves a row.
func exactRows() []sameBitsRow {
	// lpWork solves through solve with a metrics registry attached and
	// hashes the pivots and dual pivots it booked.
	lpWork := func(h *bitHash, solve func(lp.Options)) {
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		solve(lp.Options{Obs: o})
		h.int(int(o.Counter("pop_lp_pivots_total", "").Value()))
		h.int(int(o.Counter("pop_lp_dual_pivots_total", "").Value()))
	}
	clusterRow := func(name string, policy cluster.PolicyFunc, objective func([]cluster.Job, *cluster.Allocation) float64) sameBitsRow {
		return sameBitsRow{
			name: "exact/cluster/" + name,
			run: func(t *testing.T) uint64 {
				jobs := cluster.GenerateJobs(48, 3, 0.2)
				c := cluster.NewCluster(9, 14, 11)
				h := bitHash{h: fnv.New64a()}
				lpWork(&h, func(opts lp.Options) {
					a, err := policy(jobs, c, opts)
					if err != nil {
						t.Fatal(err)
					}
					h.floats([]float64{objective(jobs, a)})
					for _, x := range a.X {
						h.floats(x)
					}
					h.floats(a.EffThr)
				})
				return h.h.Sum64()
			},
		}
	}
	return []sameBitsRow{
		clusterRow("max-min", cluster.MaxMinFairness, func(jobs []cluster.Job, a *cluster.Allocation) float64 {
			lo, _ := cluster.MinMean(cluster.NormalizedRatios(jobs, cluster.NewCluster(9, 14, 11), a))
			return lo
		}),
		clusterRow("makespan", cluster.MinMakespan, cluster.Makespan),
		{
			name: "exact/te/max-flow",
			run: func(t *testing.T) uint64 {
				tp := topo.GenerateScaled("Deltacom", 0.3)
				inst := te.NewInstance(tp, tm.Generate(tm.Config{
					Nodes: tp.G.N, Commodities: 60, Model: tm.Gravity,
					TotalDemand: tp.TotalCapacity() * 0.4, Seed: 3,
				}), 4)
				h := bitHash{h: fnv.New64a()}
				lpWork(&h, func(opts lp.Options) {
					a, err := te.SolveLP(inst, te.MaxTotalFlow, opts)
					if err != nil {
						t.Fatal(err)
					}
					h.floats([]float64{a.TotalFlow})
					for _, f := range a.PathFlow {
						h.floats(f)
					}
				})
				return h.h.Sum64()
			},
		},
		{
			// Three rounds through lb.MILPSolver: each round's root starts
			// from the last round's root basis (SetBasis on a first build),
			// and every node re-solves after SetBounds.
			name: "exact/lb/milp",
			run: func(t *testing.T) uint64 {
				inst := lb.NewInstance(12, 3, 0.05, 7)
				s := lb.NewMILPSolver(milp.Options{})
				h := bitHash{h: fnv.New64a()}
				for r := range 3 {
					inst.ShiftLoads(int64(100 + r))
					a, err := s.Solve(inst)
					if err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
					h.floats([]float64{a.MovedBytes})
					for i := range a.Frac {
						h.floats(a.Frac[i])
						for _, p := range a.Placed[i] {
							h.bool(p)
						}
					}
					h.bool(a.Optimal)
					st := a.Search
					for _, v := range []int{st.Nodes, st.HeuristicSolves, st.LPPivots, st.DualPivots, st.WarmNodes, st.ColdFallbacks} {
						h.int(v)
					}
					inst.Placement = a.Placed
				}
				return h.h.Sum64()
			},
		},
	}
}

// churnPool is the pool the churn sequence starts on; round 10 replaces it.
var churnPool = cluster.NewCluster(8, 8, 8)

// churnRound is one round of the churn sequence: departures, then
// arrivals and updates, then an allocation on pool.
type churnRound struct {
	pool    cluster.Cluster
	removes []int
	upserts []cluster.Job
}

// churnSequence is the seeded 20-round delta sequence every engine row
// replays: 24 jobs up front, then each round up to two departures, one to
// three arrivals and up to two weight changes, and from round 10 on a pool
// with fewer K80s and more P100s.
func churnSequence() []churnRound {
	rng := rand.New(rand.NewSource(40))
	templates := cluster.GenerateJobs(64, 11, 0.3)
	var live []cluster.Job
	nextID := 0
	arrive := func() cluster.Job {
		j := templates[rng.Intn(len(templates))]
		j.ID = nextID
		nextID++
		live = append(live, j)
		return j
	}
	rounds := make([]churnRound, 20)
	for r := range rounds {
		rd := &rounds[r]
		rd.pool = churnPool
		if r >= 10 {
			rd.pool = cluster.NewCluster(6, 10, 8)
		}
		if r == 0 {
			for range 24 {
				rd.upserts = append(rd.upserts, arrive())
			}
			continue
		}
		for range rng.Intn(3) {
			i := rng.Intn(len(live))
			rd.removes = append(rd.removes, live[i].ID)
			live = append(live[:i], live[i+1:]...)
		}
		for range 1 + rng.Intn(3) {
			rd.upserts = append(rd.upserts, arrive())
		}
		for range rng.Intn(3) {
			i := rng.Intn(len(live))
			live[i].Weight *= 0.5 + rng.Float64()
			rd.upserts = append(rd.upserts, live[i])
		}
	}
	return rounds
}

// roundEngine is the round surface both engine families share.
type roundEngine interface {
	Upsert(cluster.Job)
	Remove(id int) bool
	Allocate(c cluster.Cluster) ([]cluster.Job, *cluster.Allocation, error)
}

// hashChurn replays the churn sequence through e and hashes every round's
// served jobs and allocation, then whatever else tail adds (the engine's
// work counters, a fleet's stale flags).
func hashChurn(t *testing.T, e roundEngine, tail func(h *bitHash)) uint64 {
	t.Helper()
	h := bitHash{h: fnv.New64a()}
	for r, rd := range churnSequence() {
		for _, id := range rd.removes {
			e.Remove(id)
		}
		for _, j := range rd.upserts {
			e.Upsert(j)
		}
		jobs, a, err := e.Allocate(rd.pool)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		h.int(len(jobs))
		for _, j := range jobs {
			h.int(j.ID)
		}
		h.int(len(a.X))
		for _, x := range a.X {
			h.floats(x)
		}
		h.int(len(a.Pairs))
		for q, pr := range a.Pairs {
			h.int(pr.J1)
			h.int(pr.J2)
			h.floats(a.PairX[q])
		}
		h.floats(a.EffThr)
		tail(&h)
	}
	return h.h.Sum64()
}

// bitHash feeds integers and float64 bit patterns to a 64-bit hash.
type bitHash struct {
	h   hash.Hash64
	buf [8]byte
}

func (b *bitHash) u64(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:], v)
	b.h.Write(b.buf[:])
}

func (b *bitHash) int(v int) { b.u64(uint64(int64(v))) }

func (b *bitHash) bool(v bool) {
	if v {
		b.int(1)
	} else {
		b.int(0)
	}
}

func (b *bitHash) floats(xs []float64) {
	b.int(len(xs))
	for _, x := range xs {
		b.u64(math.Float64bits(x))
	}
}
