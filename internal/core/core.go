// Package core implements the POP (Partitioned Optimization Problems)
// procedure from the paper, once: Run validates the options, optionally
// splits large clients (Algorithm 2), fixes the number of sub-problems k,
// partitions the clients (and deals out any resources that are partitioned
// rather than split 1/k), solves the sub-problems in a bounded parallel map,
// and hands the ordered sub-results back for the caller's reduce.
//
// Every POP entry point in the tree — cluster.SolvePOP, lb.SolvePOP, the
// four in package te, and the public pop.Solve — is Run plus the two things
// only its domain knows: how to cut a sub-instance out of a Sub, and how to
// sum the sub-results back. Partition, SplitClients, Gather and ParallelMap
// are the steps Run is made of; the root package pop re-exports
// SplitClients, which pop.Solve leaves to its callers.
package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Strategy selects how clients are assigned to sub-problems.
type Strategy int8

const (
	// Random shuffles clients and deals them round-robin, giving each
	// sub-problem an equal-sized random subset. This is POP's default and
	// the subject of the paper's §5.1 analysis.
	Random Strategy = iota
	// PowerOfTwo assigns each client to the better of two randomly chosen
	// sub-problems, picking the one whose current load profile is most
	// similar to the global distribution (lower total load). Evaluated in
	// Figure 16 of the paper.
	PowerOfTwo
	// Skewed sorts clients by load and assigns contiguous chunks,
	// deliberately concentrating similar clients — the paper's example of a
	// bad partition (Figure 16).
	Skewed
	// RoundRobin deals clients in index order without shuffling;
	// deterministic, mainly for tests.
	RoundRobin
)

func (s Strategy) String() string {
	switch s {
	case Random:
		return "random"
	case PowerOfTwo:
		return "power-of-2"
	case Skewed:
		return "skewed"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Partition assigns n clients to k sub-problems and returns the index sets,
// one per sub-problem. load is consulted by the PowerOfTwo and Skewed
// strategies and may be nil for Random/RoundRobin. The result is
// deterministic in (n, k, strategy, seed).
func Partition(n, k int, strategy Strategy, seed int64, load func(i int) float64) [][]int {
	if k <= 0 {
		panic("core: k must be positive")
	}
	if k > n && n > 0 {
		k = n
	}
	groups := make([][]int, k)
	rng := rand.New(rand.NewSource(seed))
	switch strategy {
	case Random:
		order := rng.Perm(n)
		for pos, i := range order {
			p := pos % k
			groups[p] = append(groups[p], i)
		}
	case RoundRobin:
		for i := 0; i < n; i++ {
			groups[i%k] = append(groups[i%k], i)
		}
	case PowerOfTwo:
		if load == nil {
			load = func(int) float64 { return 1 }
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		order := rng.Perm(n)
		target := n / k
		for _, i := range order {
			a := rng.Intn(k)
			b := rng.Intn(k)
			// Prefer the sub-problem with lower load; break ties toward the
			// one with fewer clients, keeping sizes near-equal.
			pick := a
			if counts[a] > target && counts[b] <= target {
				pick = b
			} else if counts[b] > target && counts[a] <= target {
				pick = a
			} else if sums[b] < sums[a] || (sums[b] == sums[a] && counts[b] < counts[a]) {
				pick = b
			}
			groups[pick] = append(groups[pick], i)
			sums[pick] += load(i)
			counts[pick]++
		}
	case Skewed:
		if load == nil {
			load = func(int) float64 { return 1 }
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		// Sort by load descending; stability keeps equal-load clients in
		// index order for determinism.
		sort.SliceStable(order, func(a, b int) bool { return load(order[a]) > load(order[b]) })
		per := (n + k - 1) / k
		for pos, i := range order {
			p := pos / per
			if p >= k {
				p = k - 1
			}
			groups[p] = append(groups[p], i)
		}
	default:
		panic(fmt.Sprintf("core: unknown strategy %v", strategy))
	}
	return groups
}

// Gather materializes the client subsets selected by groups.
func Gather[T any](items []T, groups [][]int) [][]T {
	out := make([][]T, len(groups))
	for p, g := range groups {
		sub := make([]T, len(g))
		for t, i := range g {
			sub[t] = items[i]
		}
		out[p] = sub
	}
	return out
}

// ParallelMap runs f(part) for part in [0,k), concurrently when parallel is
// true, and returns the first error (by part index) encountered. Concurrency
// is bounded by GOMAXPROCS: a fixed pool of goroutines pulls part indices
// from a shared counter, so a large-k POP sweep (k in the hundreds during a
// k-sensitivity scan) costs pool-sized scheduler load instead of k
// simultaneous goroutines, with results and error order unchanged.
func ParallelMap(k int, parallel bool, f func(part int) error) error {
	if !parallel || k == 1 {
		for p := 0; p < k; p++ {
			if err := f(p); err != nil {
				return err
			}
		}
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	var wg sync.WaitGroup
	errs := make([]error, k)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= k {
					return
				}
				errs[p] = f(p)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// VirtualClient tags a (possibly split) client with the index of the real
// client it derives from, so coalescing can sum virtual allocations back.
type VirtualClient[C any] struct {
	Orig   int
	Client C
}

// SplitClients is Algorithm 2 of the paper: repeatedly halve the largest
// client by its splitting attribute until (1+t)·n virtual clients exist.
// load reads the splitting attribute; split must return two copies of c with
// the attribute halved. The total of the splitting attribute is preserved,
// so any feasible allocation to the virtual clients coalesces to a feasible
// allocation for the originals.
func SplitClients[C any](clients []C, t float64, load func(C) float64, split func(C) (C, C)) []VirtualClient[C] {
	n := len(clients)
	h := &maxHeap[C]{load: load}
	for i, c := range clients {
		h.items = append(h.items, VirtualClient[C]{Orig: i, Client: c})
	}
	heap.Init(h)
	limit := int(float64(n) * (1 + t))
	for h.Len() < limit {
		top := heap.Pop(h).(VirtualClient[C])
		a, b := split(top.Client)
		heap.Push(h, VirtualClient[C]{Orig: top.Orig, Client: a})
		heap.Push(h, VirtualClient[C]{Orig: top.Orig, Client: b})
	}
	return h.items
}

type maxHeap[C any] struct {
	items []VirtualClient[C]
	load  func(C) float64
}

func (h *maxHeap[C]) Len() int { return len(h.items) }
func (h *maxHeap[C]) Less(i, j int) bool {
	return h.load(h.items[i].Client) > h.load(h.items[j].Client)
}
func (h *maxHeap[C]) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *maxHeap[C]) Push(x any) {
	h.items = append(h.items, x.(VirtualClient[C]))
}
func (h *maxHeap[C]) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// Options bundles the standard POP knobs shared by every entry point.
type Options struct {
	// K is the number of sub-problems asked for (POP-k in the paper's
	// figures). Run solves min(K, clients, partitioned resources) of them,
	// so no sub-problem is ever empty.
	K int
	// Strategy is the client partitioning strategy; Random is the default.
	Strategy Strategy
	// Seed makes the random partition reproducible.
	Seed int64
	// Parallel solves sub-problems concurrently (the paper's map step).
	Parallel bool
	// SplitT is the client-splitting threshold t from Algorithm 2: the ratio
	// of extra virtual clients allowed. 0 disables client splitting. Only
	// te.SolvePOP and te.SolvePOPWithNCFlow split (they halve a commodity's
	// demand); every other entry point — cluster, lb, te.SolvePOPGeo,
	// te.SolveSharded, pop.Solve — rejects SplitT > 0 rather than ignore it.
	SplitT float64
}

// Validate checks the option invariants shared by all entry points.
func (o Options) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("pop: K must be ≥ 1, got %d", o.K)
	}
	if o.SplitT < 0 {
		return fmt.Errorf("pop: SplitT must be ≥ 0, got %g", o.SplitT)
	}
	return nil
}

// Spec describes a problem's clients, and how many of its resources are
// partitioned, to Run.
type Spec[C any] struct {
	// Clients are the problem's clients in the caller's order.
	Clients []C
	// Load reads a client's size: what PowerOfTwo and Skewed balance and
	// what Algorithm 2 halves. Nil is allowed unless Split is set.
	Load func(C) float64
	// Split returns two copies of c with Load halved. Setting it is what
	// makes an entry point a splitting one.
	Split func(c C) (C, C)
	// Groups, when non-nil, replaces the seeded Partition (lb's
	// load-balanced deal, TE's geographic k-means): given the clamped k it
	// returns at most k groups of indices into Clients, and what it returns
	// fixes k. It excludes Split.
	Groups func(k int) [][]int
	// Resources counts the resources that are partitioned — dealt out whole,
	// round-robin, as Sub.Resources — rather than split 1/k; they bound k.
	// Zero when every resource is split.
	Resources int
}

// Sub is one sub-problem of a Run.
type Sub[C any] struct {
	// Part of K identifies the sub-problem; split resources are scaled 1/K.
	Part, K int
	// Clients are this sub-problem's (possibly split) clients; Clients[t] is
	// (a share of) Spec.Clients[Orig[t]].
	Clients []C
	Orig    []int
	// Resources indexes the partitioned resources dealt to this sub-problem.
	Resources []int
}

// Run is the POP procedure. It validates opts, splits clients when
// opts.SplitT > 0, clamps k to min(opts.K, clients, spec.Resources) — one
// sub-problem when there are no clients at all — partitions, and calls
// solve on every sub-problem, concurrently when opts.Parallel. It returns
// the sub-problems and their results in part order for the caller to
// reduce, or the error of the lowest-numbered failing part.
func Run[C, S any](spec Spec[C], opts Options, solve func(Sub[C]) (S, error)) ([]Sub[C], []S, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	clients, orig := spec.Clients, []int(nil)
	if opts.SplitT > 0 {
		if spec.Split == nil || spec.Groups != nil {
			return nil, nil, fmt.Errorf("pop: SplitT %g passed to an entry point that does not split clients", opts.SplitT)
		}
		virtual := SplitClients(spec.Clients, opts.SplitT, spec.Load, spec.Split)
		clients, orig = make([]C, len(virtual)), make([]int, len(virtual))
		for i, v := range virtual {
			clients[i], orig[i] = v.Client, v.Orig
		}
	}

	k := min(opts.K, max(1, len(clients)))
	if spec.Resources > 0 {
		k = min(k, spec.Resources)
	}
	var groups [][]int
	if spec.Groups != nil && len(clients) > 0 {
		groups = spec.Groups(k)
		k = len(groups)
	} else {
		var load func(int) float64
		if spec.Load != nil {
			load = func(i int) float64 { return spec.Load(clients[i]) }
		}
		groups = Partition(len(clients), k, opts.Strategy, opts.Seed, load)
	}
	dealt := Partition(spec.Resources, k, RoundRobin, 0, nil)

	subClients, subOrig := Gather(clients, groups), groups
	if orig != nil {
		subOrig = Gather(orig, groups)
	}
	subs := make([]Sub[C], k)
	for p := range subs {
		subs[p] = Sub[C]{Part: p, K: k, Clients: subClients[p], Orig: subOrig[p], Resources: dealt[p]}
	}
	results := make([]S, k)
	err := ParallelMap(k, opts.Parallel, func(p int) error {
		var err error
		results[p], err = solve(subs[p])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return subs, results, nil
}
