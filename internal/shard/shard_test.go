package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/cluster"
	"pop/internal/online"
	"pop/internal/price"
)

// swapHandler lets a test replace a worker's handler mid-flight — the
// crash-and-restart simulation — inject a straggle delay, and count the
// POSTs the worker is sent.
type swapHandler struct {
	h       atomic.Value // http.Handler
	delayMs atomic.Int64
	posts   atomic.Int64
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.posts.Add(1)
	}
	if d := s.delayMs.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Millisecond)
	}
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// fleet is a set of in-process shard workers behind real HTTP servers.
type fleet struct {
	workers  []*Worker
	bundles  []*EngineBundle
	handlers []*swapHandler
	urls     []string
}

func newFleet(t *testing.T, n int, cfg EngineConfig, wopts WorkerOptions) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		b, err := NewEngine(testCluster(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(b, wopts)
		sh := &swapHandler{}
		sh.h.Store(w.Handler())
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		f.workers = append(f.workers, w)
		f.bundles = append(f.bundles, b)
		f.handlers = append(f.handlers, sh)
		f.urls = append(f.urls, ts.URL)
	}
	return f
}

// crash replaces worker i with a fresh process image: a new engine with no
// state, behind the same URL.
func (f *fleet) crash(t *testing.T, i int, cfg EngineConfig, wopts WorkerOptions) {
	t.Helper()
	b, err := NewEngine(testCluster(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(b, wopts)
	f.workers[i] = w
	f.bundles[i] = b
	f.handlers[i].h.Store(w.Handler())
}

func testCluster() cluster.Cluster { return cluster.NewCluster(12, 12, 12) }

func randJob(id int, rnd *rand.Rand) cluster.Job {
	return cluster.Job{
		ID:         id,
		Throughput: []float64{1 + rnd.Float64(), 2 + 2*rnd.Float64(), 3 + 3*rnd.Float64()},
		Weight:     1,
		Scale:      float64(1 + rnd.Intn(2)),
		NumSteps:   1000,
		Priority:   1,
	}
}

// byID merges job lists into one, ascending by id.
func byID(parts ...[]cluster.Job) []cluster.Job {
	live := map[int]cluster.Job{}
	for _, p := range parts {
		for _, j := range p {
			live[j.ID] = j
		}
	}
	return sortedJobs(live)
}

func sortedJobs(live map[int]cluster.Job) []cluster.Job {
	out := make([]cluster.Job, 0, len(live))
	for _, j := range live {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// churn applies one random round of arrivals, departures, and updates.
func churn(live map[int]cluster.Job, nextID *int, rnd *rand.Rand) {
	for a := rnd.Intn(4); a > 0; a-- {
		live[*nextID] = randJob(*nextID, rnd)
		*nextID++
	}
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) > 8 {
		for d := rnd.Intn(3); d > 0 && len(ids) > 1; d-- {
			victim := ids[rnd.Intn(len(ids))]
			delete(live, victim)
		}
	}
	for u := rnd.Intn(3); u > 0 && len(ids) > 0; u-- {
		id := ids[rnd.Intn(len(ids))]
		if j, ok := live[id]; ok {
			j.Throughput = []float64{1 + rnd.Float64(), 2 + 2*rnd.Float64(), 3 + 3*rnd.Float64()}
			live[id] = j
		}
	}
}

// newTestCoordinator builds numWorkers fresh workers and a coordinator that
// reaches them over the named transport: "http" (each worker behind its own
// loopback server) or "local" (direct calls into the *Worker values). The
// servers close when the test ends, or earlier by the returned func.
func newTestCoordinator(t testing.TB, transport string, numWorkers int, c cluster.Cluster, cfg EngineConfig, opts CoordinatorOptions) (*Coordinator, func()) {
	t.Helper()
	var urls []string
	var workers []*Worker
	var servers []*httptest.Server
	for i := 0; i < numWorkers; i++ {
		b, err := NewEngine(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(b, WorkerOptions{})
		workers = append(workers, w)
		if transport == "http" {
			ts := httptest.NewServer(w.Handler())
			t.Cleanup(ts.Close)
			servers = append(servers, ts)
			urls = append(urls, ts.URL)
		}
	}
	var coord *Coordinator
	var err error
	switch transport {
	case "http":
		coord, err = NewCoordinator(urls, opts)
	case "local":
		coord, err = NewLocalCoordinator(workers, opts)
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	if err != nil {
		t.Fatal(err)
	}
	return coord, func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
}

// runEquivalence drives the full sharded path — coordinator, transport,
// workers, merge — against reference in-process engines partitioned by the
// same owner hash over the same capacity split, each fed its shard's population
// through Step (the same ascending-id batches a RoundRequest carries), and
// requires identical allocations: to 1e-6 over HTTP (sharded == single), bit
// for bit over the local transport, where nothing sits between the
// coordinator and the engine but struct hand-offs. With one worker the
// reference is the bare engine over the whole pool. It returns every
// round's merged allocation, so two transports can be compared exactly.
func runEquivalence(t *testing.T, policy, transport string, numWorkers, rounds int, seed int64) []*cluster.Allocation {
	t.Helper()
	cfg := EngineConfig{Policy: policy, K: 2}
	coord, _ := newTestCoordinator(t, transport, numWorkers, testCluster(), cfg, CoordinatorOptions{Deadline: 30 * time.Second})
	tol := 1e-6
	if transport == "local" {
		tol = 0
	}

	refs := make([]Engine, numWorkers)
	for i := range refs {
		b, err := NewEngine(testCluster(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = b.Engine
	}

	c := testCluster()
	sub := c.Split(numWorkers)
	rnd := rand.New(rand.NewSource(seed))
	live := map[int]cluster.Job{}
	nextID := 0
	var allocs []*cluster.Allocation
	for round := 1; round <= rounds; round++ {
		churn(live, &nextID, rnd)
		active := sortedJobs(live)

		got, err := coord.Step(active, c)
		if err != nil {
			t.Fatalf("round %d: sharded step: %v", round, err)
		}
		if coord.StaleJobs() != 0 {
			t.Fatalf("round %d: %d stale jobs on a healthy fleet", round, coord.StaleJobs())
		}
		allocs = append(allocs, got)

		type row struct {
			x      []float64
			effThr float64
		}
		want := map[int]row{}
		for w := 0; w < numWorkers; w++ {
			var shardActive []cluster.Job
			for _, j := range active {
				if owner(j.ID, numWorkers) == w {
					shardActive = append(shardActive, j)
				}
			}
			if len(shardActive) == 0 {
				continue
			}
			alloc, err := refs[w].Step(shardActive, sub)
			if err != nil {
				t.Fatalf("round %d: reference shard %d: %v", round, w, err)
			}
			for i, j := range shardActive {
				r := row{effThr: alloc.EffThr[i]}
				if alloc.X != nil {
					r.x = alloc.X[i]
				}
				want[j.ID] = r
			}
		}

		for pos, j := range active {
			ref, ok := want[j.ID]
			if !ok {
				t.Fatalf("round %d: job %d missing from reference", round, j.ID)
			}
			if d := math.Abs(got.EffThr[pos] - ref.effThr); d > tol {
				t.Fatalf("round %d: job %d effThr diverged by %g (sharded %g, single %g)",
					round, j.ID, d, got.EffThr[pos], ref.effThr)
			}
			if (got.X == nil) != (ref.x == nil) {
				t.Fatalf("round %d: job %d: sharded has X rows %v, single %v", round, j.ID, got.X != nil, ref.x != nil)
			}
			for k := range ref.x {
				if d := math.Abs(got.X[pos][k] - ref.x[k]); d > tol {
					t.Fatalf("round %d: job %d x[%d] diverged by %g", round, j.ID, k, d)
				}
			}
		}
	}
	return allocs
}

// runTransports is runEquivalence over both transports on the same churn
// sequence, plus the cross-check: local ×W and HTTP ×W answer bit for bit
// the same.
func runTransports(t *testing.T, policy string, numWorkers, rounds int, seed int64) {
	t.Helper()
	overHTTP := runEquivalence(t, policy, "http", numWorkers, rounds, seed)
	local := runEquivalence(t, policy, "local", numWorkers, rounds, seed)
	for r := range local {
		if !reflect.DeepEqual(local[r], overHTTP[r]) {
			t.Fatalf("round %d: local and HTTP transports allocate differently:\nlocal %+v\nhttp  %+v", r+1, local[r], overHTTP[r])
		}
	}
}

// TestShardedMatchesSingleProcessLP: the LP engines, one and several shards,
// over both transports.
func TestShardedMatchesSingleProcessLP(t *testing.T) {
	t.Run("maxmin/1worker", func(t *testing.T) { runTransports(t, "maxmin", 1, 10, 1) })
	t.Run("maxmin/3workers", func(t *testing.T) { runTransports(t, "maxmin", 3, 12, 2) })
	t.Run("makespan/1worker", func(t *testing.T) { runTransports(t, "makespan", 1, 8, 12) })
	t.Run("makespan/2workers", func(t *testing.T) { runTransports(t, "makespan", 2, 10, 3) })
	t.Run("spacesharing/1worker", func(t *testing.T) { runTransports(t, "spacesharing", 1, 8, 13) })
	t.Run("spacesharing/2workers", func(t *testing.T) { runTransports(t, "spacesharing", 2, 10, 14) })
}

// TestShardedMatchesSingleProcessPrice: the price-discovery engine (X rows
// ride the columnar encoding).
func TestShardedMatchesSingleProcessPrice(t *testing.T) {
	t.Run("1worker", func(t *testing.T) { runTransports(t, "price", 1, 8, 4) })
	t.Run("2workers", func(t *testing.T) { runTransports(t, "price", 2, 10, 5) })
}

// TestShardedSpaceSharing: pair-slot allocations have no per-type X rows;
// the gather must still carry effective throughputs for every client.
func TestShardedSpaceSharing(t *testing.T) {
	f := newFleet(t, 2, EngineConfig{Policy: "spacesharing", K: 1}, WorkerOptions{})
	coord, err := NewCoordinator(f.urls, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(6))
	live := map[int]cluster.Job{}
	for id := 0; id < 10; id++ {
		live[id] = randJob(id, rnd)
	}
	alloc, err := coord.Step(sortedJobs(live), testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if alloc.X != nil {
		t.Fatal("space-sharing gather produced solo X rows")
	}
	for i, thr := range alloc.EffThr {
		if thr <= 0 {
			t.Fatalf("job %d starved under sharded space sharing: %g", i, thr)
		}
	}
}

// TestStragglerServesStaleAllocation: a worker that misses the round
// deadline has its clients served last round's allocation, flagged stale;
// when it recovers, the queued mutations land and no registry rebuild is
// needed.
func TestStragglerServesStaleAllocation(t *testing.T) {
	const numWorkers = 2
	f := newFleet(t, numWorkers, EngineConfig{Policy: "maxmin", K: 1}, WorkerOptions{})
	coord, err := NewCoordinator(f.urls, CoordinatorOptions{Deadline: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	live := map[int]cluster.Job{}
	for id := 0; id < 12; id++ {
		live[id] = randJob(id, rnd)
	}
	active := sortedJobs(live)
	before, err := coord.Step(active, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	prevThr := map[int]float64{}
	for i, j := range active {
		prevThr[j.ID] = before.EffThr[i]
	}

	// Worker 0 straggles past the deadline; a new job arrives on its shard.
	newID := 1000
	for owner(newID, numWorkers) != 0 {
		newID++
	}
	live[newID] = randJob(newID, rnd)
	active = sortedJobs(live)
	f.handlers[0].delayMs.Store(600)
	during, err := coord.Step(active, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	f.handlers[0].delayMs.Store(0)

	stale := coord.LastStale()
	if coord.StaleJobs() == 0 {
		t.Fatal("straggling worker produced no stale jobs")
	}
	for i, j := range active {
		owner := owner(j.ID, numWorkers)
		if owner == 0 {
			if !stale[i] {
				t.Fatalf("job %d on the straggling shard not flagged stale", j.ID)
			}
			if j.ID != newID && math.Abs(during.EffThr[i]-prevThr[j.ID]) > 1e-12 {
				t.Fatalf("job %d stale row differs from last round: %g vs %g",
					j.ID, during.EffThr[i], prevThr[j.ID])
			}
			if j.ID == newID && during.EffThr[i] != 0 {
				t.Fatalf("unallocated new job %d has throughput %g", newID, during.EffThr[i])
			}
		} else if stale[i] {
			t.Fatalf("job %d on the healthy shard flagged stale", j.ID)
		}
	}
	st := coord.Status()
	if st[0].Stragglers != 1 || st[1].Stragglers != 0 {
		t.Fatalf("straggler counters wrong: %+v", st)
	}

	// Recovery: the re-queued batch lands; the new job gets a real
	// allocation; no rebuild was needed (straggle is not a crash).
	after, err := coord.Step(active, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if coord.StaleJobs() != 0 {
		t.Fatalf("%d jobs still stale after recovery", coord.StaleJobs())
	}
	for i, j := range active {
		if j.ID == newID && after.EffThr[i] <= 0 {
			t.Fatalf("new job %d still unallocated after recovery", newID)
		}
	}
	for _, ws := range coord.Status() {
		if ws.Rebuilds != 0 {
			t.Fatalf("straggle recovery triggered a rebuild: %+v", ws)
		}
	}
}

// TestKillAndRebuild: a crashed-and-restarted worker (fresh process, no
// state) answers 409, is rebuilt from the coordinator's registry inside the
// same round, and from then on matches a fresh engine fed the same registry
// — the authoritative-rebuild guarantee.
func TestKillAndRebuild(t *testing.T) {
	const numWorkers = 2
	cfg := EngineConfig{Policy: "maxmin", K: 1}
	f := newFleet(t, numWorkers, cfg, WorkerOptions{})
	coord, err := NewCoordinator(f.urls, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(8))
	live := map[int]cluster.Job{}
	nextID := 0
	for round := 0; round < 4; round++ {
		churn(live, &nextID, rnd)
		if _, err := coord.Step(sortedJobs(live), testCluster()); err != nil {
			t.Fatal(err)
		}
	}

	f.crash(t, 0, cfg, WorkerOptions{})
	if f.workers[0].LastRound() != 0 {
		t.Fatal("crashed worker kept state")
	}

	// No churn this round: the 409 is answered by a full round carrying
	// the worker's whole shard from the registry.
	active := sortedJobs(live)
	got, err := coord.Step(active, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if coord.StaleJobs() != 0 {
		t.Fatalf("rebuild round left %d stale jobs", coord.StaleJobs())
	}
	st := coord.Status()
	if st[0].Rebuilds != 1 {
		t.Fatalf("worker 0 rebuilds = %d, want 1", st[0].Rebuilds)
	}
	if st[1].Rebuilds != 0 {
		t.Fatalf("healthy worker was rebuilt: %+v", st[1])
	}

	// The rebuilt shard's allocation must equal a fresh engine fed the same
	// registry in the same (ascending-id) order over the same sub-capacity.
	refB, err := NewEngine(testCluster(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var shard0 []cluster.Job
	for _, j := range active {
		if owner(j.ID, numWorkers) == 0 {
			shard0 = append(shard0, j)
		}
	}
	refAlloc, err := refB.Engine.Step(shard0, testCluster().Split(numWorkers))
	if err != nil {
		t.Fatal(err)
	}
	refThr := map[int]float64{}
	for i, j := range shard0 {
		refThr[j.ID] = refAlloc.EffThr[i]
	}
	for i, j := range active {
		if owner(j.ID, numWorkers) != 0 {
			continue
		}
		if d := math.Abs(got.EffThr[i] - refThr[j.ID]); d > 1e-6 {
			t.Fatalf("rebuilt shard diverged on job %d by %g", j.ID, d)
		}
	}

	// Subsequent rounds run clean: no more rebuilds.
	if _, err := coord.Step(active, testCluster()); err != nil {
		t.Fatal(err)
	}
	if coord.Status()[0].Rebuilds != 1 {
		t.Fatal("extra rebuild after recovery")
	}
}

// rebuildRound runs one round of coord and of ref, a fleet never faulted,
// over the same clients, and checks coord's side: each worker was sent
// wantPosts[i] POSTs, a rebuilt one (rebuilt[i]) exactly one rebuild more
// than before, and every worker serves fresh rows, holds exactly the
// clients it owns, and serves ref's max-min level to 1e-6 (not its rows,
// which are the LP's choice of vertex and depend on the engine's history).
func rebuildRound(t *testing.T, coord, ref *Coordinator, workers []*Worker, handlers []*swapHandler,
	active []cluster.Job, wantPosts []int64, rebuilt []bool) {
	t.Helper()
	pool := testCluster()
	before := coord.Status()
	for _, h := range handlers {
		h.posts.Store(0)
	}
	got, err := coord.Step(active, pool)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Step(active, pool)
	if err != nil {
		t.Fatal(err)
	}
	if coord.StaleJobs() != 0 || ref.StaleJobs() != 0 {
		t.Fatalf("%d stale jobs, reference %d", coord.StaleJobs(), ref.StaleJobs())
	}
	n := len(workers)
	for i, w := range workers {
		if got := handlers[i].posts.Load(); got != wantPosts[i] {
			t.Errorf("worker %d was sent %d POSTs this round, want %d", i, got, wantPosts[i])
		}
		wantRebuilds := before[i].Rebuilds
		if rebuilt[i] {
			wantRebuilds++
		}
		if got := coord.Status()[i].Rebuilds; got != wantRebuilds {
			t.Errorf("worker %d at %d rebuilds, want %d", i, got, wantRebuilds)
		}
		var owned []int
		for _, j := range active {
			if owner(j.ID, n) == i {
				owned = append(owned, j.ID)
			}
		}
		if held := heldIDs(w); !reflect.DeepEqual(held, owned) {
			t.Errorf("worker %d holds %v, owns %v", i, held, owned)
		}
		g, r := maxMinLevel(active, pool.Split(n), got, i, n), maxMinLevel(active, pool.Split(n), want, i, n)
		if math.Abs(g-r) > 1e-6 {
			t.Errorf("worker %d serves max-min level %g, a never-faulted fleet %g", i, g, r)
		}
	}
}

// TestRebuildIsOneRequest: a rebuild is a round whose batch is the whole
// shard, not a request of its own. A steady round sends each worker one
// POST; a worker flagged by the count check (here, warm workers facing a
// restarted coordinator whose registry lacks some of their clients) or by
// NewLocalCoordinator's owner check on restored clients one, its full
// round; a worker restarted empty two, the 409 and the full round.
func TestRebuildIsOneRequest(t *testing.T) {
	const numWorkers = 2
	cfg := EngineConfig{Policy: "maxmin", K: 1}
	newCoord := func(f *fleet) *Coordinator {
		c, err := NewCoordinator(f.urls, CoordinatorOptions{Deadline: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	t.Run("restart/count", func(t *testing.T) {
		f, rf := newFleet(t, numWorkers, cfg, WorkerOptions{}), newFleet(t, numWorkers, cfg, WorkerOptions{})
		coord, ref := newCoord(f), newCoord(rf)
		rnd := rand.New(rand.NewSource(43))
		live := map[int]cluster.Job{}
		nextID := 0
		for round := 0; round < 4; round++ {
			churn(live, &nextID, rnd)
			rebuildRound(t, coord, ref, f.workers, f.handlers, sortedJobs(live), []int64{1, 1}, []bool{false, false})
		}

		f.crash(t, 0, cfg, WorkerOptions{})
		rebuildRound(t, coord, ref, f.workers, f.handlers, sortedJobs(live), []int64{2, 1}, []bool{true, false})
		rebuildRound(t, coord, ref, f.workers, f.handlers, sortedJobs(live), []int64{1, 1}, []bool{false, false})

		// A coordinator restarted on a registry without one client of each
		// worker: its first round's count check flags both, its second
		// rebuilds them.
		dropped := [numWorkers]bool{}
		for _, j := range sortedJobs(live) {
			if w := owner(j.ID, numWorkers); !dropped[w] {
				delete(live, j.ID)
				dropped[w] = true
			}
		}
		coord = newCoord(f)
		if _, err := coord.Step(sortedJobs(live), testCluster()); err != nil {
			t.Fatal(err)
		}
		for i, ws := range coord.Status() {
			if !coord.workers[i].needSync {
				t.Fatalf("worker %d holding a client the registry lacks was not flagged: %+v", i, ws)
			}
		}
		rebuildRound(t, coord, ref, f.workers, f.handlers, sortedJobs(live), []int64{1, 1}, []bool{true, true})
		rebuildRound(t, coord, ref, f.workers, f.handlers, sortedJobs(live), []int64{1, 1}, []bool{false, false})
	})

	t.Run("restored wrong owner", func(t *testing.T) {
		sub := testCluster().Split(numWorkers)
		rnd := rand.New(rand.NewSource(44))
		var own [numWorkers][]cluster.Job
		for id := 0; len(own[0]) < 4 || len(own[1]) < 4; id++ {
			if w := owner(id, numWorkers); len(own[w]) < 4 {
				own[w] = append(own[w], randJob(id, rnd))
			}
		}
		// fleet restores workers holding held behind counting handlers and
		// seeds a local coordinator's registry from them.
		fleet := func(held [numWorkers][]cluster.Job) (*Coordinator, []*Worker, []*swapHandler) {
			workers := make([]*Worker, numWorkers)
			for i := range workers {
				workers[i] = restoredWorker(t, cfg, sub, held[i])
			}
			coord, err := NewLocalCoordinator(workers, CoordinatorOptions{Deadline: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			handlers := make([]*swapHandler, numWorkers)
			for i, w := range workers {
				handlers[i] = &swapHandler{}
				handlers[i].h.Store(w.Handler())
				srv := httptest.NewServer(handlers[i])
				t.Cleanup(srv.Close)
				coord.workers[i].t = &httpTransport{client: &http.Client{}, url: srv.URL}
			}
			return coord, workers, handlers
		}
		coord, workers, handlers := fleet([numWorkers][]cluster.Job{byID(own[0][:2], own[1][:2]), byID(own[1][2:], own[0][2:])})
		ref, _, _ := fleet(own)
		active := coord.Jobs()
		rebuildRound(t, coord, ref, workers, handlers, active, []int64{1, 1}, []bool{true, true})
		rebuildRound(t, coord, ref, workers, handlers, active, []int64{1, 1}, []bool{false, false})
	})
}

// TestWorkerStateFileWarmRejoin: a worker restarted with its -state-file
// rejoins at its saved round — no 409, no rebuild — and its first solve
// attempts a warm start from the restored bases.
func TestWorkerStateFileWarmRejoin(t *testing.T) {
	cfg := EngineConfig{Policy: "maxmin", K: 2}
	stateFile := filepath.Join(t.TempDir(), "worker.state")
	wopts := WorkerOptions{StateFile: stateFile}
	f := newFleet(t, 1, cfg, wopts)
	coord, err := NewCoordinator(f.urls, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(9))
	live := map[int]cluster.Job{}
	for id := 0; id < 10; id++ {
		live[id] = randJob(id, rnd)
	}
	active := sortedJobs(live)
	before, err := coord.Step(active, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.workers[0].SaveState(); err != nil {
		t.Fatal(err)
	}
	savedRound := f.workers[0].LastRound()

	f.crash(t, 0, cfg, wopts) // restart with the same state file
	if got := f.workers[0].LastRound(); got != savedRound {
		t.Fatalf("restored worker at round %d, want %d", got, savedRound)
	}

	after, err := coord.Step(active, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if coord.Status()[0].Rebuilds != 0 {
		t.Fatal("state-file restart still needed a registry rebuild")
	}
	st := f.bundles[0].Stats().(online.Stats)
	if st.WarmAttempts == 0 {
		t.Fatal("restored engine never attempted a warm start from its saved bases")
	}
	for i := range active {
		if d := math.Abs(after.EffThr[i] - before.EffThr[i]); d > 1e-6 {
			t.Fatalf("unchanged job set reallocated differently after restore: job %d off by %g",
				active[i].ID, d)
		}
	}
	// The barrier a shutdown uses: waits out the round's background
	// checkpoint, so nothing writes into the temp dir while it is removed.
	if err := f.workers[0].SaveState(); err != nil {
		t.Fatal(err)
	}
}

// TestStateFileEngineKind: a -state-file restores only into the kind of
// engine that wrote it. The LP and price snapshots share JSON names
// ("policy":"max-min-fairness", rounds, iterations, arrivals), so an LP
// file decodes into a price engine without complaint, LP pivots reading
// back as price iterations; the envelope's kind is what tells them apart.
// A file without a kind predates the field and restores as it always did.
func TestStateFileEngineKind(t *testing.T) {
	lpCfg := EngineConfig{Policy: "maxmin", K: 2}
	priceCfg := EngineConfig{Policy: "price"}
	saved := func(cfg EngineConfig) func(*testing.T) string {
		return func(t *testing.T) string { return savedStateFile(t, cfg, stateJobs()) }
	}
	// legacy is single-process popserver's last own envelope: an LP max-min
	// engine at round 3 with 5 jobs, and no kind.
	legacy := func(t *testing.T) string {
		raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "popserver", "testdata", "single_process_v15.state"))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"kind"`)) {
			t.Fatal("legacy fixture already records a kind")
		}
		path := filepath.Join(t.TempDir(), "worker.state")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name        string
		file        func(*testing.T) string
		cfg         EngineConfig
		round, jobs int
	}{
		{"lp file, lp worker", saved(lpCfg), lpCfg, 1, 20},
		{"price file, price worker", saved(priceCfg), priceCfg, 1, 20},
		{"lp file, price worker", saved(lpCfg), priceCfg, 0, 0},
		{"price file, lp worker", saved(priceCfg), lpCfg, 0, 0},
		{"legacy file, lp worker", legacy, lpCfg, 3, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.file(t)
			b, err := NewEngine(testCluster(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var logs bytes.Buffer
			w := NewWorker(b, WorkerOptions{StateFile: path, Log: slog.New(slog.NewTextHandler(&logs, nil))})
			if got := b.Engine.NumJobs(); got != tc.jobs {
				t.Fatalf("worker holds %d jobs, want %d; stats %+v", got, tc.jobs, b.Stats())
			}
			if got := w.LastRound(); got != tc.round {
				t.Fatalf("worker at round %d, want %d", got, tc.round)
			}
			rejected := tc.jobs == 0
			if got := strings.Contains(logs.String(), "state restore rejected; starting fresh"); got != rejected {
				t.Fatalf("restore rejected = %v, want %v; log:\n%s", got, rejected, logs.String())
			}
			if rejected && !reflect.ValueOf(b.Stats()).IsZero() {
				t.Fatalf("rejected restore left counters behind: %+v", b.Stats())
			}
		})
	}
}

// stateJobs are the 20 jobs savedStateFile's round submits.
func stateJobs() []cluster.Job {
	rnd := rand.New(rand.NewSource(20))
	var jobs []cluster.Job
	for id := 0; id < 20; id++ {
		jobs = append(jobs, randJob(id, rnd))
	}
	return jobs
}

// savedStateFile runs one round of jobs on a cfg worker and returns its
// state file.
func savedStateFile(t testing.TB, cfg EngineConfig, jobs []cluster.Job) string {
	path := filepath.Join(t.TempDir(), "worker.state")
	b, err := NewEngine(testCluster(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(b, WorkerOptions{StateFile: path})
	if _, err := w.round(mustRequest(t, 1, 0, testCluster(), jobs, nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveState(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStateFileJobsMustFitPool: a -state-file whose jobs do not fit the
// pool it restores — here one job with two throughputs for three GPU types —
// is refused the way a round request carrying that job would be, not
// restored cleanly only to panic the worker's first round.
func TestStateFileJobsMustFitPool(t *testing.T) {
	for _, cfg := range []EngineConfig{{Policy: "maxmin", K: 2}, {Policy: "price"}} {
		t.Run(cfg.Policy, func(t *testing.T) {
			path := savedStateFile(t, cfg, stateJobs())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var env map[string]json.RawMessage
			var eng map[string]any
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(env["engine"], &eng); err != nil {
				t.Fatal(err)
			}
			eng["jobs"].([]any)[7].(map[string]any)["Throughput"] = []float64{1, 2}
			if env["engine"], err = json.Marshal(eng); err != nil {
				t.Fatal(err)
			}
			if raw, err = json.Marshal(env); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			b, err := NewEngine(testCluster(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var logs bytes.Buffer
			w := NewWorker(b, WorkerOptions{StateFile: path, Log: slog.New(slog.NewTextHandler(&logs, nil))})
			if got := b.Engine.NumJobs(); got != 0 || w.LastRound() != 0 {
				t.Fatalf("worker restored %d jobs at round %d from a file with a short throughput row", got, w.LastRound())
			}
			if !strings.Contains(logs.String(), "state restore rejected; starting fresh") || !strings.Contains(logs.String(), "job 7") {
				t.Fatalf("restore not rejected by the bad job; log:\n%s", logs.String())
			}
			if _, err := w.round(mustRequest(t, 1, 0, testCluster(), stateJobs(), nil)); err != nil {
				t.Fatalf("fresh worker failed its first round: %v", err)
			}
			if got := b.Engine.NumJobs(); got != 20 {
				t.Fatalf("fresh worker holds %d jobs after its first round, want 20", got)
			}
			// Waits out the round's background checkpoint before the temp
			// dir is removed.
			if err := w.SaveState(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzWorkerStateFile: arbitrary bytes as a max-min worker's -state-file.
// NewWorker must not panic. A refused file leaves an empty worker at round
// 0. An accepted one resumes at a round that two more rounds cannot wrap
// negative, and joins a two-worker local coordinator, whose registry
// it seeds, and after two rounds each worker holds exactly the clients it
// owns — whatever the file held, and whoever owned it under the fleet that
// wrote it.
func FuzzWorkerStateFile(f *testing.F) {
	cfg := EngineConfig{Policy: "maxmin", K: 2}
	lp, err := os.ReadFile(savedStateFile(f, cfg, stateJobs()[:4]))
	if err != nil {
		f.Fatal(err)
	}
	price, err := os.ReadFile(savedStateFile(f, EngineConfig{Policy: "price"}, stateJobs()[:4]))
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("..", "..", "cmd", "popserver", "testdata", "single_process_v15.state"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		lp, price, legacy, nil, []byte("{}"), []byte(`{"last_round":2,"kind":"lp","engine":null}`),
		bytes.Replace(lp, []byte(`"last_round":1`), []byte(`"last_round":-7`), 1),
		bytes.Replace(lp, []byte(`"last_round":1`), []byte(`"last_round":9223372036854775807`), 1),
	} {
		f.Add(seed)
	}
	pool := testCluster()
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "worker.state")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		workers := make([]*Worker, 2)
		var logs bytes.Buffer
		for i := range workers {
			b, err := NewEngine(pool.Split(len(workers)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := WorkerOptions{}
			if i == 0 {
				opts = WorkerOptions{StateFile: path, Log: slog.New(slog.NewTextHandler(&logs, nil))}
			}
			workers[i] = NewWorker(b, opts)
		}
		// Waits out the background checkpoints before the temp dir goes.
		defer func() { _ = workers[0].SaveState() }()
		if strings.Contains(logs.String(), "starting fresh") {
			if n, r := workers[0].b.Engine.NumJobs(), workers[0].LastRound(); n != 0 || r != 0 {
				t.Fatalf("refused file left %d jobs at round %d; log:\n%s", n, r, logs.String())
			}
			return
		}
		coord, err := NewLocalCoordinator(workers, CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= 2; round++ {
			if _, _, err := coord.Allocate(pool); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if r, want := coord.Round(), workers[0].LastRound(); r != want || r < 2 {
			t.Fatalf("after two rounds the coordinator is at round %d, worker 0 at %d; want both >= 2", r, want)
		}
		owned := make([][]int, len(workers))
		for _, j := range coord.Jobs() {
			i := owner(j.ID, len(workers))
			owned[i] = append(owned[i], j.ID)
		}
		for i, w := range workers {
			if held := heldIDs(w); !reflect.DeepEqual(held, owned[i]) {
				t.Fatalf("after two rounds worker %d holds %v, owns %v; stale jobs %d, status %+v", i, held, owned[i], coord.StaleJobs(), coord.Status())
			}
		}
	})
}

// maxMinLevel is the max-min objective worker i of a numWorkers-worker
// fleet serves over its pool share sub: the least normalized throughput
// over the clients of jobs it owns, their rows read from a (a merged
// allocation over jobs).
func maxMinLevel(jobs []cluster.Job, sub cluster.Cluster, a *cluster.Allocation, i, numWorkers int) float64 {
	mine := &cluster.Allocation{}
	var owned []cluster.Job
	for pos, j := range jobs {
		if owner(j.ID, numWorkers) == i {
			owned = append(owned, j)
			mine.X = append(mine.X, a.X[pos])
			mine.EffThr = append(mine.EffThr, a.EffThr[pos])
		}
	}
	return price.MaxMinObjective(owned, sub, mine)
}

// heldIDs lists the ids w's engine holds, ascending.
func heldIDs(w *Worker) []int {
	var ids []int
	for _, j := range w.b.Engine.Jobs() {
		ids = append(ids, j.ID)
	}
	return ids
}

// restoredWorker returns a cfg worker over sub restored from the state file
// of a worker that ran one round on jobs.
func restoredWorker(t *testing.T, cfg EngineConfig, sub cluster.Cluster, jobs []cluster.Job) *Worker {
	t.Helper()
	b, err := NewEngine(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(b, WorkerOptions{StateFile: savedStateFile(t, cfg, jobs)})
	if w.LastRound() != 1 || w.b.Engine.NumJobs() != len(jobs) {
		t.Fatalf("restored worker at round %d with %d jobs, want round 1 with %d", w.LastRound(), w.b.Engine.NumJobs(), len(jobs))
	}
	// Waits out the last round's background checkpoint before the temp dir
	// is removed.
	t.Cleanup(func() { _ = w.SaveState() })
	return w
}

// TestRestoredWorkerWrongOwnerIsReconciled: workers restored from state
// files written under another ownership (an older hash, another fleet
// shape) hold clients they do not own — here each holds some of its own
// clients and some of the other's, in equal and in unequal numbers. Within
// two rounds each worker holds exactly the clients it owns, none is held
// twice, and each worker serves the max-min level a fleet that never held a
// wrong member serves. K = 1, so that level depends on the client set alone,
// not on the order partitions were filled in; rows above the level are the
// LP's choice of vertex, which depends on the engine's history, so they are
// not compared. Equal counts are the case a
// count check misses: NewLocalCoordinator checks each restored id against
// owner. Over both transports.
func TestRestoredWorkerWrongOwnerIsReconciled(t *testing.T) {
	const numWorkers, perWorker = 2, 6
	cfg := EngineConfig{Policy: "maxmin", K: 1}
	pool := testCluster()
	sub := pool.Split(numWorkers)
	rnd := rand.New(rand.NewSource(41))
	var own [numWorkers][]cluster.Job
	for id := 0; len(own[0]) < perWorker || len(own[1]) < perWorker; id++ {
		if w := owner(id, numWorkers); len(own[w]) < perWorker {
			own[w] = append(own[w], randJob(id, rnd))
		}
	}
	for _, tc := range []struct {
		name string
		held [numWorkers][]cluster.Job
	}{
		{"equal", [numWorkers][]cluster.Job{byID(own[0][:3], own[1][:3]), byID(own[1][3:], own[0][3:])}},
		{"unequal", [numWorkers][]cluster.Job{byID(own[0][:4], own[1][:3]), byID(own[1][3:], own[0][4:])}},
	} {
		for _, transport := range []string{"http", "local"} {
			t.Run(tc.name+"/"+transport, func(t *testing.T) {
				// fleet seeds a coordinator's registry from workers restored
				// holding held; over "http" its rounds then go through each
				// worker's handler.
				fleet := func(held [numWorkers][]cluster.Job) (*Coordinator, []*Worker) {
					workers := make([]*Worker, numWorkers)
					for i := range workers {
						workers[i] = restoredWorker(t, cfg, sub, held[i])
					}
					coord, err := NewLocalCoordinator(workers, CoordinatorOptions{Deadline: 30 * time.Second})
					if err != nil {
						t.Fatal(err)
					}
					if transport == "http" {
						for i, w := range workers {
							srv := httptest.NewServer(w.Handler())
							t.Cleanup(srv.Close)
							coord.workers[i].t = &httpTransport{client: &http.Client{}, url: srv.URL}
						}
					}
					return coord, workers
				}
				coord, workers := fleet(tc.held)
				ref, _ := fleet(own)
				var jobs []cluster.Job
				var got, want *cluster.Allocation
				for round := 1; round <= 2; round++ {
					var refJobs []cluster.Job
					var err error
					if jobs, got, err = coord.Allocate(pool); err != nil {
						t.Fatal(err)
					}
					if refJobs, want, err = ref.Allocate(pool); err != nil {
						t.Fatal(err)
					}
					if len(jobs) != 2*perWorker || !reflect.DeepEqual(jobs, refJobs) {
						t.Fatalf("round %d: serving %d clients, the reference fleet %d", round, len(jobs), len(refJobs))
					}
				}
				if coord.StaleJobs() != 0 || ref.StaleJobs() != 0 {
					t.Fatalf("round 2: %d stale jobs, reference %d", coord.StaleJobs(), ref.StaleJobs())
				}
				for i, w := range workers {
					var owned []int
					for _, j := range own[i] {
						owned = append(owned, j.ID)
					}
					if held := heldIDs(w); !reflect.DeepEqual(held, owned) {
						t.Fatalf("after two rounds worker %d holds %v, owns %v", i, held, owned)
					}
					if n, m := coord.Status()[i].Rebuilds, ref.Status()[i].Rebuilds; n != 1 || m != 0 {
						t.Fatalf("worker %d rebuilt %d times, the reference's %d; want 1 and 0", i, n, m)
					}
				}
				for i := range workers {
					g, w := maxMinLevel(jobs, sub, got, i, numWorkers), maxMinLevel(jobs, sub, want, i, numWorkers)
					if math.Abs(g-w) > 1e-6 {
						t.Fatalf("worker %d serves max-min level %g, in a fleet that never held a wrong member %g", i, g, w)
					}
				}
			})
		}
	}
}

// TestWorkerAuth: a round requires the bearer token; health stays
// open; a token-carrying coordinator round-trips.
func TestWorkerAuth(t *testing.T) {
	const token = "shard-secret"
	f := newFleet(t, 1, EngineConfig{Policy: "maxmin", K: 1}, WorkerOptions{Token: token})

	post := func(tok string) int {
		body := mustRequest(t, 1, 0, cluster.NewCluster(1, 1, 1), nil, nil).frame
		req, _ := http.NewRequest(http.MethodPost, f.urls[0]+PathRound, bytes.NewReader(body))
		if tok != "" {
			Token(tok).Set(req)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(""); got != http.StatusUnauthorized {
		t.Fatalf("tokenless round: status %d, want 401", got)
	}
	if got := post("wrong-token"); got != http.StatusUnauthorized {
		t.Fatalf("wrong-token round: status %d, want 401", got)
	}
	if got := post(token); got != http.StatusOK {
		t.Fatalf("authorized round: status %d, want 200", got)
	}
	if resp, err := http.Get(f.urls[0] + PathHealth); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("health probe should stay open: %v", err)
	} else {
		resp.Body.Close()
	}

	coord, err := NewCoordinator(f.urls, CoordinatorOptions{Token: token})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(10))
	live := map[int]cluster.Job{0: randJob(0, rnd), 1: randJob(1, rnd)}
	if _, err := coord.Step(sortedJobs(live), testCluster()); err != nil {
		t.Fatal(err)
	}
	if coord.StaleJobs() != 0 {
		t.Fatal("authorized coordinator round went stale")
	}
}

// TestWorkerHealth reports the applied round and job count.
func TestWorkerHealth(t *testing.T) {
	f := newFleet(t, 1, EngineConfig{Policy: "price"}, WorkerOptions{})
	coord, err := NewCoordinator(f.urls, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(11))
	live := map[int]cluster.Job{1: randJob(1, rnd), 2: randJob(2, rnd), 3: randJob(3, rnd)}
	if _, err := coord.Step(sortedJobs(live), testCluster()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(f.urls[0] + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.LastRound != 1 || h.NumJobs != 3 || h.Kind != "price" {
		t.Fatalf("health = %+v, want ok round=1 jobs=3 kind=price", h)
	}
}

// TestStateFileStagedBesideTarget: the one writeFileAtomic in the repository
// stages the replacement in the target's own directory — the rename never
// crosses a filesystem, and an absolute path never leaves a temp file in the
// working directory (the defect of the copy popserver used to carry, which
// staged "/x" in ".").
func TestStateFileStagedBesideTarget(t *testing.T) {
	cwd, elsewhere := t.TempDir(), t.TempDir()
	t.Chdir(cwd)
	if err := os.Mkdir("dir", 0o755); err != nil {
		t.Fatal(err)
	}
	ls := func(dir string) string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}
	for _, tc := range []struct{ path, dir, cwdAfter string }{
		{"x", ".", "dir x"},
		{"dir/x", "dir", "dir x"},
		{filepath.Join(elsewhere, "x"), elsewhere, "dir x"},
	} {
		for _, data := range []string{"first", "second"} { // create, then replace
			if err := writeFileAtomic(tc.path, []byte(data)); err != nil {
				t.Fatalf("%s: %v", tc.path, err)
			}
			if got, err := os.ReadFile(tc.path); err != nil || string(got) != data {
				t.Fatalf("%s holds %q (%v), want %q", tc.path, got, err, data)
			}
		}
		if got := ls(tc.dir); !strings.HasSuffix(got, "x") || strings.Contains(got, ".state-") {
			t.Fatalf("%s: its directory holds %q, want the target and no temp file", tc.path, got)
		}
		if got := ls("."); got != tc.cwdAfter {
			t.Fatalf("%s: working directory holds %q, want %q", tc.path, got, tc.cwdAfter)
		}
	}

	// A root-level target stages in "/", not in the working directory. Only
	// checkable where "/" is not writable: the failure names the temp path.
	if os.Geteuid() == 0 {
		t.Log("running as root: skipping the /x case rather than writing to /")
		return
	}
	var pe *fs.PathError
	if err := writeFileAtomic("/x", nil); !errors.As(err, &pe) || filepath.Dir(pe.Path) != "/" {
		t.Fatalf("writeFileAtomic(/x) = %v, want a failure to stage in /", err)
	}
	if got := ls("."); got != "dir x" {
		t.Fatalf("/x: working directory holds %q, want it untouched", got)
	}
}
