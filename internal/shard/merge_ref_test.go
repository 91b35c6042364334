package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// mergeByOwner is the merge the cursor walk replaced, kept as its oracle:
// every row is looked up in its owner's gather, found by Ring.Owner and a
// per-worker cursor with binary search behind it.
func (c *Coordinator) mergeByOwner(order []cluster.Job) (*cluster.Allocation, []bool, int) {
	n, r := len(order), c.c.NumTypes()
	slab := make([]float64, n*r)
	out := &cluster.Allocation{
		X:      make([][]float64, n),
		EffThr: make([]float64, n),
	}
	stale := make([]bool, n)
	cursor := make([]int, len(c.workers))
	staleJobs, haveX := 0, false
	for pos, j := range order {
		wi := c.ring.Owner(j.ID)
		w := c.workers[wi]
		g := &w.last
		out.X[pos] = slab[pos*r : (pos+1)*r : (pos+1)*r]
		k, ok := g.find(j.ID, cursor[wi])
		if ok {
			cursor[wi] = k + 1
			out.EffThr[pos] = f64(g.effThr, k)
			if g.width > 0 {
				haveX = true
				for t := range min(r, g.width) {
					out.X[pos][t] = f64(g.x, k*g.width+t)
				}
			}
		}
		if w.Stale || !ok {
			stale[pos] = true
			staleJobs++
		}
	}
	if !haveX {
		out.X = nil
	}
	return out, stale, staleJobs
}

// flakyTransport fails every call while down is set: a worker the round
// writes off, over either transport.
type flakyTransport struct {
	Transport
	down *atomic.Bool
}

var errDown = errors.New("worker down")

func (t flakyTransport) Round(ctx context.Context, o *obs.Observer, req *RoundRequest, limit int64) (*RoundResponse, error) {
	if t.down.Load() {
		return nil, errDown
	}
	return t.Transport.Round(ctx, o, req, limit)
}

// sameBits reports whether two allocations agree bit for bit.
func sameBits(a, b *cluster.Allocation) bool {
	if len(a.EffThr) != len(b.EffThr) || (a.X == nil) != (b.X == nil) {
		return false
	}
	for i := range a.EffThr {
		if math.Float64bits(a.EffThr[i]) != math.Float64bits(b.EffThr[i]) {
			return false
		}
		if a.X == nil {
			continue
		}
		if len(a.X[i]) != len(b.X[i]) {
			return false
		}
		for t := range a.X[i] {
			if math.Float64bits(a.X[i][t]) != math.Float64bits(b.X[i][t]) {
				return false
			}
		}
	}
	return true
}

// TestMergeMatchesOwnerOracle: the cursor merge serves every round exactly
// what looking each row up by owner serves — bit-identical rows, the same
// stale flags and count — over two workers reached by HTTP or in process,
// through churn rounds with the order ascending and shuffled, a worker down
// for two rounds while a never-allocated client joins its shard, and a
// first round in which worker 0 also holds a client the ring gives worker 1
// (left over from another fleet), which the coordinator must not serve.
func TestMergeMatchesOwnerOracle(t *testing.T) {
	const numWorkers = 2
	ring := NewRing(numWorkers)
	pool := testCluster()
	sub := pool.Split(numWorkers)
	for _, transport := range []string{"http", "local"} {
		t.Run(transport+"×2", func(t *testing.T) {
			rnd := rand.New(rand.NewSource(31))
			live := map[int]cluster.Job{}
			nextID := 0
			for ; nextID < 24; nextID++ {
				live[nextID] = randJob(nextID, rnd)
			}
			zombie := 0
			for ring.Owner(zombie) != 1 {
				zombie++
			}
			var down atomic.Bool
			ts := make([]Transport, numWorkers)
			for i := range ts {
				b, err := NewEngine(sub, EngineConfig{Policy: "price"})
				if err != nil {
					t.Fatal(err)
				}
				w := NewWorker(b, WorkerOptions{})
				if i == 0 { // holds a client of worker 1's, with a row of its own
					z := randJob(zombie, rnd)
					if _, err := w.round(mustRequest(t, 1, 0, sub, []cluster.Job{z}, nil)); err != nil {
						t.Fatal(err)
					}
				}
				ts[i] = localTransport{w}
				if transport == "http" {
					srv := httptest.NewServer(w.Handler())
					t.Cleanup(srv.Close)
					ts[i] = &httpTransport{client: &http.Client{}, url: srv.URL}
				}
				if i == 1 {
					ts[i] = flakyTransport{ts[i], &down}
				}
			}
			coord, err := newCoordinator(ts, CoordinatorOptions{Deadline: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}

			sawZombie, sawFresh := false, false
			for round := 1; round <= 10; round++ {
				if round > 1 {
					churn(live, &nextID, rnd)
				}
				newcomer := -1
				if round == 4 { // joins worker 1's shard while it is down
					for newcomer = nextID; ring.Owner(newcomer) != 1; newcomer++ {
					}
					live[newcomer] = randJob(newcomer, rnd)
					nextID = newcomer + 1
				}
				down.Store(round == 4 || round == 5)
				active := sortedJobs(live)
				if round%3 == 0 || round == 5 {
					rnd.Shuffle(len(active), func(a, b int) { active[a], active[b] = active[b], active[a] })
				}

				got, err := coord.Step(active, pool)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				sawZombie = sawZombie || coord.workers[0].needSync
				want, wantStale, wantStaleJobs := coord.mergeByOwner(active)
				if !sameBits(got, want) {
					t.Fatalf("round %d: merged rows differ from the owner lookup's:\ncursor %+v\nowner  %+v", round, got, want)
				}
				if coord.StaleJobs() != wantStaleJobs {
					t.Fatalf("round %d: %d stale jobs, the owner lookup counts %d", round, coord.StaleJobs(), wantStaleJobs)
				}
				for i, s := range coord.LastStale() {
					if s != wantStale[i] {
						t.Fatalf("round %d: job %d stale = %v, the owner lookup says %v", round, active[i].ID, s, wantStale[i])
					}
				}
				if down.Load() && (coord.StaleJobs() == 0 || !coord.Status()[1].Stale) {
					t.Fatalf("round %d: worker 1 is down but nothing was served stale", round)
				}
				for i, j := range active {
					if j.ID == newcomer {
						sawFresh = coord.LastStale()[i] && got.EffThr[i] == 0
					}
				}
			}
			if !sawZombie || !sawFresh {
				t.Fatalf("scenario not exercised: foreign client flagged %v, never-allocated client served stale %v", sawZombie, sawFresh)
			}
		})
	}
}
