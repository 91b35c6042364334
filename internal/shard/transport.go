package shard

import (
	"context"
	"errors"
	"fmt"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// Transport carries the coordinator's one call to a worker; where the
// worker runs (NewCoordinator: behind HTTP; NewLocalCoordinator: in this
// process) is deployment, and the round protocol on either side of the seam
// is one copy. A worker behind the request's PrevRound answers ErrOutOfSync,
// a response over limit bytes is ErrTooLarge. o is the calling gather
// lane's observer; String names the worker in logs and /v1/stats.
type Transport interface {
	Round(ctx context.Context, o *obs.Observer, req *RoundRequest, limit int64) (*RoundResponse, error)
	fmt.Stringer
}

var (
	// ErrOutOfSync (409 on the wire): a mutation batch passed the worker
	// by; the coordinator resends the round as a full one.
	ErrOutOfSync = errors.New("out of sync")
	// ErrTooLarge marks a response that overran its size bound.
	ErrTooLarge = errors.New("response exceeds its size bound")
)

// localTransport hands the structs across as they are — no JSON, the packed
// columns by reference — to the round core the HTTP handler wraps. It cannot abandon a running
// solve: past the deadline the round waits for it and serves it fresh.
type localTransport struct{ w *Worker }

func (t localTransport) String() string { return "local" }

func (t localTransport) Round(_ context.Context, _ *obs.Observer, req *RoundRequest, _ int64) (*RoundResponse, error) {
	defer t.w.phase("round").End()
	return t.w.round(req)
}

// NewLocalCoordinator builds a coordinator over workers in this process.
// What a worker already holds (a -state-file restore, the only copy of a
// single-process server's client set) seeds the registry, round, and ack
// state, so a restart resumes at the saved round. A worker holding a client
// it does not own is sent a full round first.
func NewLocalCoordinator(workers []*Worker, opts CoordinatorOptions) (*Coordinator, error) {
	ts := make([]Transport, len(workers))
	for i, w := range workers {
		ts[i] = localTransport{w}
	}
	c, err := newCoordinator(ts, opts)
	if err != nil {
		return nil, err
	}
	for i, w := range workers {
		w.mu.Lock()
		jobs, round := w.b.Engine.Jobs(), w.lastRound
		w.mu.Unlock()
		for _, j := range jobs {
			o := owner(j.ID, len(workers))
			if c.registry.Upsert(j) == cluster.Arrived {
				c.workers[o].numOwned++
			}
			// A state file written under another fleet shape or hash can
			// hold the right number of clients but the wrong ones, which the
			// round's count check would miss.
			c.workers[i].needSync = c.workers[i].needSync || o != i
		}
		c.workers[i].Round = round
		c.round = max(c.round, round)
	}
	return c, nil
}
