package shard

import (
	"math/rand"
	"runtime"
	"testing"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// servedRow is one way of serving the same population: a coordinator over
// workers reached by HTTP or in process, or — the reference row — the bare
// policy engine stepped directly over the whole pool.
type servedRow struct {
	name      string
	transport string // "http", "local", or "" for the bare engine
	workers   int
}

var servedRows = []servedRow{{"http×2", "http", 2}, {"local×1", "local", 1}, {"engine", "", 1}}

// servedFleet is an Engine being served plus a replace-churn population
// (each round the oldest clients leave and as many fresh ones arrive) — the
// serve workloads of the repository benchmark, sized for `go test`.
type servedFleet struct {
	eng      Engine
	coord    *Coordinator  // nil on the bare-engine row
	reg      *obs.Registry // the coordinator's metrics
	pool     cluster.Cluster
	active   []cluster.Job
	rnd      *rand.Rand
	nextID   int
	perRound int
}

func newServedFleet(tb testing.TB, policy string, k, clients int, row servedRow, churn float64) *servedFleet {
	tb.Helper()
	per := float64(clients) / 8
	f := &servedFleet{
		reg:      obs.NewRegistry(),
		pool:     cluster.NewCluster(per, per, per),
		active:   make([]cluster.Job, clients),
		rnd:      rand.New(rand.NewSource(1)),
		perRound: max(1, int(float64(clients)*churn)),
	}
	cfg := EngineConfig{Policy: policy, K: k}
	if row.transport == "" {
		b, err := NewEngine(f.pool, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		f.eng = b.Engine
	} else {
		f.coord = newTestCoordinator(tb, row.transport, row.workers, f.pool.Split(row.workers), cfg,
			CoordinatorOptions{Obs: &obs.Observer{Metrics: f.reg}})
		f.eng = f.coord
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
	alloc, err := f.eng.Step(f.active, f.pool)
	if err != nil {
		tb.Fatal(err)
	}
	if len(alloc.EffThr) != len(f.active) {
		tb.Fatalf("%d rows for %d clients", len(alloc.EffThr), len(f.active))
	}
	if f.coord != nil && f.coord.StaleJobs() != 0 {
		tb.Fatalf("round %d: %d stale jobs", f.coord.Round(), f.coord.StaleJobs())
	}
}

// BenchmarkShardRound is one served churn round end to end — registry diff,
// scatter, worker apply/solve/extract, framed gather, merge — at 20 000
// clients, 1% churn, over each servedRow (req-B/op and resp-B/op: request
// and response bytes on the wire per round, all workers): two workers
// behind HTTP (B/op and
// allocs/op then cover coordinator, both workers, and net/http), one worker
// in process (single-process popserver's round, which no workload of the
// repository benchmark drives), and the bare Engine.Step both are measured
// against.
func BenchmarkShardRound(b *testing.B) {
	for _, bc := range []struct {
		policy string
		k      int
	}{{"price", 1}, {"maxmin", 16}} {
		for _, row := range servedRows {
			b.Run(bc.policy+"/"+row.name, func(b *testing.B) {
				f := newServedFleet(b, bc.policy, bc.k, 20000, row, 0.01)
				for i := 0; i < 2; i++ { // warm the engines
					f.churn()
					f.step(b)
				}
				req := f.reg.Histogram("pop_shard_request_bytes", "", nil)
				resp := f.reg.Histogram("pop_shard_response_bytes", "", nil)
				reqBefore, respBefore := req.Sum(), resp.Sum()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.churn()
					f.step(b)
				}
				if sent := resp.Sum() - respBefore; sent > 0 { // only HTTP rows put bytes on a wire
					b.ReportMetric((req.Sum()-reqBefore)/float64(b.N), "req-B/op")
					b.ReportMetric(sent/float64(b.N), "resp-B/op")
				}
			})
		}
	}
}

// TestSteadyStateAllocations pins a served round's heap objects to
// O(churn) + a constant: with the client tables, domain constants, and
// gather columns all held as slabs, nothing allocates per client, so a
// per-row map entry or row slice creeping back into any layer shows up as
// ≥ n objects. The price bound (n/4 at n = 20 000, 1% churn) leaves ~25
// objects per churned client for JSON decode, HTTP, and the solver's
// scratch. The maxmin rows re-solve 16 persistent LP models per round; with
// the rows and standardized form rebuilt in place and the recycled solver
// workspace that is a couple of thousand objects (returned solutions,
// carried bases), where per-row maps and per-solve vectors made it 2.5 per
// client — the bound there is n/2. Both hold over either transport.
//
// The price rows also bound bytes: a round's rows are written once by the
// worker (pack) and read where they arrive (one body buffer over HTTP, the
// worker's own frame in process), 0.8 MB a copy at this size, beside the
// engine's ~2.2 MB and the merged allocation's ~1.1 MB. One more pass that
// copies the columns — a text encoding, an unpacked gather — breaks the
// bound. (The LP rows' bytes follow GC timing through the solver's pooled
// workspaces, so they are logged, not bounded.)
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000-client fleet")
	}
	const clients = 20000
	for _, pc := range []struct {
		policy string
		k      int
		bound  float64
		mb     []float64 // per servedRow; nil: not bounded
	}{{"price", 1, clients / 4, []float64{5.6, 4.5}}, {"maxmin", 16, clients / 2, nil}} {
		for r, row := range servedRows[:2] {
			name := row.name // the price rows keep the names they have always had
			if pc.policy != "price" {
				name = pc.policy + "/" + row.name
			}
			t.Run(name, func(t *testing.T) {
				if raceEnabled && pc.policy == "maxmin" {
					// Under the race detector the 20 000-client cold LP load
					// outlasts the round deadline, and sync.Pool (the online
					// engines' sync scratch) drops items at random, so the
					// count would mean nothing.
					t.Skip("allocation pin of the LP path is meaningless under -race")
				}
				f := newServedFleet(t, pc.policy, pc.k, clients, row, 0.01)
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
				mb := float64(after.TotalAlloc-before.TotalAlloc) / rounds / (1 << 20)
				t.Logf("%.0f objects, %.2f MB per round at %d clients", perRound, mb, clients)
				if perRound >= pc.bound {
					t.Fatalf("a steady-state round allocates %.0f objects at %d clients; want < %.0f (O(churn), not O(n))",
						perRound, clients, pc.bound)
				}
				// Not under -race: there bytes.Buffer's grow (append of a make)
				// allocates the coordinator's body buffer twice.
				if pc.mb != nil && !raceEnabled && mb >= pc.mb[r] {
					t.Fatalf("a steady-state round allocates %.2f MB at %d clients; want < %.1f (the rows are copied once a side)",
						mb, clients, pc.mb[r])
				}
			})
		}
	}
}
