package shard

import (
	"fmt"
	"strings"

	"pop/internal/cluster"
	"pop/internal/obs"
	"pop/internal/online"
	"pop/internal/price"
)

// Engine is the per-round surface of a client set that can be allocated: a
// Worker drives the incremental LP engine (online.ClusterEngine) or the
// price-discovery engine (price.ClusterEngine) through it, and popserver and
// the benches drive the Coordinator, which satisfies it too.
//
// An engine holds its client set between rounds. Serving paths edit it with
// Upsert and Remove and call Allocate, which solves over the held set and
// returns it in ascending-ID order with the allocation aligned — no
// per-round copy, sort, or diff of the population. The returned jobs alias
// engine state: read-only, valid until the next Upsert or Remove. Step is
// Allocate for callers that hold the population themselves (benches, round
// loops): it diffs active into the engine first and answers in active
// order. Jobs returns a copy, for the rare paths that need one (registry
// reconciles, snapshots).
type Engine interface {
	Upsert(cluster.Job)
	Remove(id int) bool
	NumJobs() int
	Jobs() []cluster.Job
	Allocate(c cluster.Cluster) ([]cluster.Job, *cluster.Allocation, error)
	Step(active []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error)
}

// EngineBundle is a constructed policy engine plus the capability hooks the
// serving layer needs without knowing the concrete type: a stats snapshot
// for /v1/stats, and state marshal/unmarshal for worker rebuild re-warming
// and -state-file restart persistence.
type EngineBundle struct {
	Engine Engine
	// Kind is "lp" for the incremental LP engines, "price" for the
	// price-discovery engine. A worker's -state-file records it and
	// restores only into a bundle of the same kind.
	Kind string
	// Stats returns the engine's counter struct (JSON-marshalable).
	Stats func() any
	// Snapshot marshals the engine's warm state (jobs, partitions, bases or
	// prices) to JSON; Restore installs such a snapshot into the engine so
	// its next round re-warms instead of cold-starting.
	Snapshot func() ([]byte, error)
	Restore  func([]byte) error
}

// EngineConfig selects and tunes a policy engine.
type EngineConfig struct {
	// Policy is maxmin | makespan | spacesharing (LP) or price.
	Policy string
	// K is the number of POP sub-problems the engine partitions its clients
	// into (LP engines; the price engine runs one market).
	K int
	// Parallel fans dirty sub-solves (LP) or best responses (price) out
	// over the worker pool.
	Parallel bool
	// Rebalance enables the LP engines' drift-bounded rebalancer.
	Rebalance bool
	// Obs receives engine telemetry; nil disables it.
	Obs *obs.Observer
}

// NewEngine constructs the policy-selected round engine. It is the single
// construction path shared by popserver's workers (in-process or the
// `worker` subcommand) and the repository benchmark's.
func NewEngine(c cluster.Cluster, cfg EngineConfig) (*EngineBundle, error) {
	switch strings.ToLower(cfg.Policy) {
	case "price":
		eng := price.NewClusterEngine(c, price.Options{Parallel: cfg.Parallel, Obs: cfg.Obs})
		return &EngineBundle{
			Engine:   eng,
			Kind:     "price",
			Stats:    func() any { return eng.Stats() },
			Snapshot: func() ([]byte, error) { return eng.Snapshot().Marshal() },
			Restore:  eng.RestoreBytes,
		}, nil
	case "maxmin", "max-min", "makespan", "min-makespan", "spacesharing", "space-sharing":
		var policy online.ClusterPolicy
		switch strings.ToLower(cfg.Policy) {
		case "maxmin", "max-min":
			policy = online.MaxMinFairness
		case "makespan", "min-makespan":
			policy = online.MinMakespan
		default:
			policy = online.SpaceSharing
		}
		opts := online.Options{K: cfg.K, Parallel: cfg.Parallel, Rebalance: cfg.Rebalance, Obs: cfg.Obs}
		eng, err := online.NewClusterEngine(c, policy, opts)
		if err != nil {
			return nil, err
		}
		return &EngineBundle{
			Engine:   eng,
			Kind:     "lp",
			Stats:    func() any { return eng.Stats() },
			Snapshot: func() ([]byte, error) { return eng.Snapshot().Marshal() },
			Restore:  eng.RestoreBytes,
		}, nil
	}
	return nil, fmt.Errorf("shard: unknown policy %q (want maxmin|makespan|spacesharing|price)", cfg.Policy)
}
