// Package pop is the public API of this repository: a Go implementation of
// POP — Partitioned Optimization Problems (Narayanan et al., SOSP 2021) —
// for solving large granular resource-allocation problems quickly.
//
// POP splits a large allocation problem into k sub-problems, each holding a
// random subset of the clients and 1/k of the resources, solves every
// sub-problem with the unchanged original formulation (in parallel), and
// coalesces the sub-allocations. On granular problems (many clients, each
// requesting a small resource share, fungible resources) the result is
// within a few percent of optimal at a fraction of the runtime.
//
// This package exposes the domain-independent machinery:
//
//   - Solve: the POP procedure over your clients, resources and solver. It
//     is the same runner (core.Run) the case-study adapters are written on,
//   - Options, Strategy: how many sub-problems and how clients are dealt,
//   - SplitClients (Algorithm 2): the client splitting Solve leaves to its
//     caller (Options.SplitT must be 0).
//
// Complete case-study adapters (traffic engineering, cluster scheduling,
// shard load balancing), the LP/MILP solvers they are built on, and the
// benchmark harness for every figure in the paper live under internal/; the
// examples/ directory shows both styles of use.
package pop

import (
	"pop/internal/core"
)

// Options bundles the standard POP knobs; see core.Options.
type Options = core.Options

// Strategy selects how clients are assigned to sub-problems.
type Strategy = core.Strategy

// Partitioning strategies.
const (
	// Random is POP's default: shuffle clients, deal round-robin.
	Random = core.Random
	// PowerOfTwo assigns each client to the better of two random
	// sub-problems.
	PowerOfTwo = core.PowerOfTwo
	// Skewed deliberately concentrates similar clients (a bad partition,
	// for ablations).
	Skewed = core.Skewed
	// RoundRobin deals clients in index order (deterministic).
	RoundRobin = core.RoundRobin
)

// VirtualClient tags a (possibly split) client with its original index.
type VirtualClient[C any] = core.VirtualClient[C]

// SplitClients is Algorithm 2 of the paper: repeatedly halve the largest
// client by its splitting attribute until (1+t)·n virtual clients exist.
func SplitClients[C any](clients []C, t float64, load func(C) float64, split func(C) (C, C)) []VirtualClient[C] {
	return core.SplitClients(clients, t, load, split)
}

// Problem describes a granular allocation problem to the generic Solve
// runner. Clients are partitioned per Options; Resources are either split
// (each sub-problem sees every resource at 1/k capacity, when ScaleResource
// is set) or partitioned evenly round-robin.
type Problem[C, R, A any] struct {
	Clients   []C
	Resources []R

	// ClientLoad reads the partition-balancing attribute (may be nil).
	ClientLoad func(C) float64

	// ScaleResource, when non-nil, enables resource splitting: it must
	// return a copy of r with capacity divided by k.
	ScaleResource func(r R, k int) R

	// SolveSub solves one sub-problem over the given client and resource
	// subsets. part identifies the sub-problem.
	SolveSub func(clients []C, resources []R, part int) (A, error)

	// Coalesce reduces the k sub-allocations into one. groups[p] lists the
	// original client indices assigned to sub-problem p.
	Coalesce func(allocs []A, groups [][]int) (A, error)
}

// Solve runs the POP procedure on p: the runner validates opts, clamps k to
// the client (and partitioned-resource) count, partitions the clients, and
// maps SolveSub over the sub-problems; Solve itself only turns the runner's
// resource indices into values and hands the ordered results to Coalesce.
// Options.SplitT must be 0: split clients with SplitClients beforehand.
func Solve[C, R, A any](p Problem[C, R, A], opts Options) (A, error) {
	if p.SolveSub == nil || p.Coalesce == nil {
		panic("pop: Problem requires SolveSub and Coalesce")
	}
	spec := core.Spec[C]{Clients: p.Clients, Load: p.ClientLoad}
	if p.ScaleResource == nil {
		spec.Resources = len(p.Resources)
	}
	subs, allocs, err := core.Run(spec, opts, func(s core.Sub[C]) (A, error) {
		var resources []R
		if p.ScaleResource != nil {
			for _, r := range p.Resources {
				resources = append(resources, p.ScaleResource(r, s.K))
			}
		} else {
			for _, i := range s.Resources {
				resources = append(resources, p.Resources[i])
			}
		}
		return p.SolveSub(s.Clients, resources, s.Part)
	})
	if err != nil {
		var zero A
		return zero, err
	}
	groups := make([][]int, len(subs))
	for i, s := range subs {
		groups[i] = s.Orig
	}
	return p.Coalesce(allocs, groups)
}
