package shard

import (
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"

	"pop/internal/cluster"
)

// servedFleet is a coordinator over in-process workers behind loopback HTTP
// plus a replace-churn population (each round the oldest clients leave and
// as many fresh ones arrive) — the serve workloads of the repository
// benchmark, sized for `go test`.
type servedFleet struct {
	coord    *Coordinator
	pool     cluster.Cluster
	active   []cluster.Job
	rnd      *rand.Rand
	nextID   int
	perRound int
}

func newServedFleet(tb testing.TB, policy string, k, clients, workers int, churn float64) *servedFleet {
	tb.Helper()
	per := float64(clients) / 8
	f := &servedFleet{
		pool:     cluster.NewCluster(per, per, per),
		active:   make([]cluster.Job, clients),
		rnd:      rand.New(rand.NewSource(1)),
		perRound: max(1, int(float64(clients)*churn)),
	}
	var urls []string
	for i := 0; i < workers; i++ {
		b, err := NewEngine(f.pool.Split(workers), EngineConfig{Policy: policy, K: k})
		if err != nil {
			tb.Fatal(err)
		}
		srv := httptest.NewServer(NewWorker(b, WorkerOptions{}).Handler())
		tb.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	var err error
	if f.coord, err = NewCoordinator(urls, CoordinatorOptions{}); err != nil {
		tb.Fatal(err)
	}
	for i := range f.active {
		f.active[i] = f.newJob()
	}
	f.step(tb) // cold load
	return f
}

func (f *servedFleet) newJob() cluster.Job {
	j := cluster.Job{
		ID:         f.nextID,
		Throughput: []float64{1 + f.rnd.Float64(), 2 + 2*f.rnd.Float64(), 3 + 3*f.rnd.Float64()},
		Weight:     1, Scale: 1, NumSteps: 1000, Priority: 1,
	}
	f.nextID++
	return j
}

func (f *servedFleet) churn() {
	n := len(f.active)
	copy(f.active, f.active[f.perRound:])
	for i := n - f.perRound; i < n; i++ {
		f.active[i] = f.newJob()
	}
}

func (f *servedFleet) step(tb testing.TB) {
	alloc, err := f.coord.Step(f.active, f.pool)
	if err != nil {
		tb.Fatal(err)
	}
	if n := f.coord.StaleJobs(); n != 0 || len(alloc.EffThr) != len(f.active) {
		tb.Fatalf("round %d: %d stale jobs, %d rows for %d clients",
			f.coord.Round(), n, len(alloc.EffThr), len(f.active))
	}
}

// BenchmarkShardRound is one served churn round end to end — registry diff,
// scatter, worker apply/solve/extract, packed gather, merge — at 20 000
// clients, 1% churn, two workers. B/op and allocs/op cover the whole
// process: coordinator, both workers, and net/http.
func BenchmarkShardRound(b *testing.B) {
	for _, bc := range []struct {
		policy string
		k      int
	}{{"price", 1}, {"maxmin", 16}} {
		b.Run(bc.policy, func(b *testing.B) {
			f := newServedFleet(b, bc.policy, bc.k, 20000, 2, 0.01)
			for i := 0; i < 2; i++ { // warm the engines
				f.churn()
				f.step(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.churn()
				f.step(b)
			}
		})
	}
}

// TestSteadyStateAllocations pins a served round's heap objects to
// O(churn) + a constant: with the client tables, domain constants, and
// gather columns all held as slabs, nothing allocates per client, so a
// per-row map entry or row slice creeping back into any layer shows up as
// ≥ n objects. The bound (n/4 at n = 20 000, 1% churn) leaves ~25 objects
// per churned client for JSON decode, HTTP, and the solver's scratch.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000-client fleet")
	}
	const clients = 20000
	f := newServedFleet(t, "price", 1, clients, 2, 0.01)
	for i := 0; i < 3; i++ {
		f.churn()
		f.step(t)
	}
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		f.churn()
		f.step(t)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("%.0f objects, %.2f MB per round at %d clients", perRound,
		float64(after.TotalAlloc-before.TotalAlloc)/rounds/(1<<20), clients)
	if perRound >= clients/4 {
		t.Fatalf("a steady-state round allocates %.0f objects at %d clients; want < %d (O(churn), not O(n))",
			perRound, clients, clients/4)
	}
}
