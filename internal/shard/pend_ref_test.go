package shard

import (
	"bytes"
	"cmp"
	"context"
	"maps"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// pendOracle is the per-worker batch bookkeeping the id lists replaced,
// kept as their oracle: a map of the upserts and a set of the removes queued
// since each worker's last ack, each mutation cancelling the other kind for
// its id, over its own copy of the registry.
type pendOracle struct {
	live   map[int]cluster.Job
	pendUp []map[int]cluster.Job
	pendRm []map[int]bool
	acked  []int // each worker's last acked round
}

func newPendOracle(workers int) *pendOracle {
	o := &pendOracle{live: map[int]cluster.Job{}, acked: make([]int, workers)}
	for range workers {
		o.pendUp = append(o.pendUp, map[int]cluster.Job{})
		o.pendRm = append(o.pendRm, map[int]bool{})
	}
	return o
}

func (o *pendOracle) upsert(j cluster.Job) {
	if old, ok := o.live[j.ID]; ok && old.Equal(j) {
		return
	}
	o.live[j.ID] = j
	w := owner(j.ID, len(o.acked))
	o.pendUp[w][j.ID] = j
	delete(o.pendRm[w], j.ID)
}

func (o *pendOracle) remove(id int) {
	if _, ok := o.live[id]; !ok {
		return
	}
	delete(o.live, id)
	w := owner(id, len(o.acked))
	o.pendRm[w][id] = true
	delete(o.pendUp[w], id)
}

// request is the frame the map bookkeeping packed for worker i.
func (o *pendOracle) request(t *testing.T, i, round int, sub cluster.Cluster, full bool) []byte {
	t.Helper()
	var ups []cluster.Job
	var rms []int
	if full {
		for _, j := range o.live {
			if owner(j.ID, len(o.acked)) == i {
				ups = append(ups, j)
			}
		}
	} else {
		ups = slices.Collect(maps.Values(o.pendUp[i]))
		rms = slices.Sorted(maps.Keys(o.pendRm[i]))
	}
	slices.SortFunc(ups, func(a, b cluster.Job) int { return cmp.Compare(a.ID, b.ID) })
	req, err := newRequest(round, o.acked[i], full, sub, ups, rms)
	if err != nil {
		t.Fatal(err)
	}
	return req.frame
}

func (o *pendOracle) ack(i, round int) {
	o.pendUp[i] = map[int]cluster.Job{}
	o.pendRm[i] = map[int]bool{}
	o.acked[i] = round
}

// recordingTransport keeps every request sent through it.
type recordingTransport struct {
	Transport
	sent *[]*RoundRequest
}

func (t recordingTransport) Round(ctx context.Context, o *obs.Observer, req *RoundRequest, limit int64) (*RoundResponse, error) {
	*t.sent = append(*t.sent, req)
	return t.Transport.Round(ctx, o, req, limit)
}

// TestPendingBatchesMatchMapOracle: the batches packed from the touched-id
// lists are, byte for byte, the frames the upsert map and remove set packed
// — removes, ids and every column — through seeded sequences of upserts of
// new data, removes (of held and unknown ids), re-upserts after a remove
// and unchanged resubmits, sent straight to the coordinator or through
// Step, with ids past the last row interleaved with out-of-order ones. One
// worker fails about a third of its rounds, so its unacked batches pile up
// across rounds and are re-sent merged with the next ones.
func TestPendingBatchesMatchMapOracle(t *testing.T) {
	const numWorkers = 2
	pool := testCluster()
	sub := pool.Split(numWorkers)
	for seed := int64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var down atomic.Bool
		sent := make([][]*RoundRequest, numWorkers)
		ts := make([]Transport, numWorkers)
		for i := range ts {
			b, err := NewEngine(sub, EngineConfig{Policy: "price"})
			if err != nil {
				t.Fatal(err)
			}
			ts[i] = localTransport{NewWorker(b, WorkerOptions{})}
			if i == 1 {
				ts[i] = flakyTransport{ts[i], &down}
			}
			ts[i] = recordingTransport{ts[i], &sent[i]}
		}
		coord, err := newCoordinator(ts, CoordinatorOptions{Deadline: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		oracle := newPendOracle(numWorkers)
		next, failed := 60, 0
		for round := 1; round <= 24; round++ {
			// The round's mutations, as a new active set for Step or sent
			// one by one.
			active := maps.Clone(oracle.live)
			viaStep := round%3 == 0
			upsert := func(j cluster.Job) {
				active[j.ID] = j
				if !viaStep {
					oracle.upsert(j)
					coord.Upsert(j)
				}
			}
			remove := func(id int) {
				_, held := active[id]
				delete(active, id)
				if !viaStep {
					oracle.remove(id)
					if coord.Remove(id) != held {
						t.Fatalf("seed %d round %d: Remove(%d) = %v", seed, round, id, !held)
					}
				}
			}
			for op := 2 + rnd.Intn(30); op > 0; op-- {
				id := rnd.Intn(next)
				switch rnd.Intn(6) {
				case 0: // new data, for a held id or an out-of-order one
					upsert(randJob(id, rnd))
				case 1: // an unchanged resubmit
					if j, ok := active[id]; ok {
						upsert(j)
					}
				case 2:
					remove(id)
				case 3: // removed, then back with its old data
					if j, ok := active[id]; ok {
						remove(id)
						upsert(j)
					}
				default: // past the last row
					next += rnd.Intn(3)
					upsert(randJob(next, rnd))
					next++
				}
			}
			if viaStep {
				jobs := slices.SortedFunc(maps.Values(active), func(a, b cluster.Job) int { return cmp.Compare(a.ID, b.ID) })
				for _, j := range jobs {
					oracle.upsert(j)
				}
				for id := range oracle.live {
					if _, ok := active[id]; !ok {
						oracle.remove(id)
					}
				}
				if _, err := coord.Step(jobs, pool); err != nil {
					t.Fatal(err)
				}
			} else if _, _, err := coord.Allocate(pool); err != nil {
				t.Fatal(err)
			}

			for i := range numWorkers {
				if len(sent[i]) != 1 {
					t.Fatalf("seed %d round %d: worker %d was sent %d requests, want 1", seed, round, i, len(sent[i]))
				}
				got := sent[i][0]
				want := oracle.request(t, i, round, sub, got.Full)
				if !bytes.Equal(got.frame, want) {
					t.Fatalf("seed %d round %d: worker %d's request differs from the map bookkeeping's:\n got %q\nwant %q",
						seed, round, i, got.frame, want)
				}
				sent[i] = sent[i][:0]
				if !coord.Status()[i].Stale {
					oracle.ack(i, round)
				} else {
					failed++
				}
			}
			down.Store(rnd.Intn(3) == 0)
		}
		if failed == 0 {
			t.Fatalf("seed %d: no round failed, so no batch piled up", seed)
		}
	}
}
