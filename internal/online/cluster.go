package online

import (
	"fmt"

	"pop/internal/cluster"
	"pop/internal/lp"
)

// ClusterPolicy selects the scheduling policy a ClusterEngine runs in each
// sub-problem.
type ClusterPolicy int8

const (
	// MaxMinFairness is the §4.1 heterogeneity-aware least-attained-service
	// policy (no space sharing).
	MaxMinFairness ClusterPolicy = iota
	// MinMakespan is the §4.1 makespan-minimizing policy.
	MinMakespan
	// SpaceSharing is max-min fairness with space sharing (§4.1, Fig 6):
	// allocation slots exist for every pair of single-GPU jobs, so two jobs
	// can time-share one GPU with interference-reduced throughputs. Pairs
	// only form within a sub-problem (the paper's §5.3 cubic reduction).
	SpaceSharing
)

func (p ClusterPolicy) String() string {
	switch p {
	case MaxMinFairness:
		return "max-min-fairness"
	case MinMakespan:
		return "min-makespan"
	case SpaceSharing:
		return "space-sharing"
	}
	return fmt.Sprintf("ClusterPolicy(%d)", int8(p))
}

// blockKey identifies one LP block inside a sub-problem's persistent model.
// A is the owning client's id; B is a second owner for blocks shared by two
// clients (the space-sharing pair slots), or cluster.NoPartner for blocks
// owned by one client alone. One client may own any number of blocks.
type blockKey struct {
	A, B int
}

// block is one keyed slice of a sub-problem's LP: Vars consecutive variables
// and Rows consecutive constraint rows (the layout rules are in the package
// doc).
type block struct {
	Key  blockKey
	Vars int
	Rows int
}

// adapter is the policy-specific half of the engine: the LP formulation.
//
//   - Layout appends to buf (an empty slice the engine recycles between
//     sub-solves) the block sequence a sub-problem's model must hold for
//     members ids.
//   - BuildModel builds the layout's model into m (new or Reset), encoding
//     the current data completely — package cluster's builder, the batch
//     policies' own model.
//   - Extract reads an optimal solution of s's model into s.alloc, rows in
//     member order.
type adapter interface {
	Layout(ids []int, buf []block) []block
	BuildModel(m *lp.Model, layout []block)
	Extract(s *sub, sol *lp.Solution)
}

// soloScratch is the working memory of one adapter call that reads the
// members: the members behind the layout, one table lookup each.
type soloScratch struct {
	members []cluster.Job
}

// soloMembers takes a soloScratch from the engine's pool holding the jobs
// that own a layout's single-owner blocks, in block order — the members
// both adapters key their rows by. The caller puts it back when done.
func (e *ClusterEngine) soloMembers(layout []block) *soloScratch {
	sc, _ := e.members.Get().(*soloScratch)
	if sc == nil {
		sc = new(soloScratch)
	}
	sc.members = sc.members[:0]
	for _, b := range layout {
		if b.Key.B == cluster.NoPartner {
			sc.members = append(sc.members, e.member(b.Key.A))
		}
	}
	return sc
}

// resize returns s with length n, on a new array of exactly that size when
// s is too small. The entries are whatever s held; callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// soloAdapter is the adapter for the solo policies (MaxMinFairness,
// MinMakespan): one block per job, in cluster.SoloModel's layout — block i
// holds the member's r allocation-fraction variables, its time row and its
// rate row; the shared epigraph t trails the block variables and the r
// shared capacity rows trail the block rows.
type soloAdapter struct {
	*ClusterEngine
}

func (ad soloAdapter) Layout(ids []int, layout []block) []block {
	r := ad.sub.NumTypes()
	for _, id := range ids {
		layout = append(layout, block{Key: blockKey{id, cluster.NoPartner}, Vars: r, Rows: 2})
	}
	return layout
}

func (ad soloAdapter) BuildModel(m *lp.Model, layout []block) {
	sc := ad.soloMembers(layout)
	defer ad.members.Put(sc)
	denom := cluster.MakespanDenominator
	if ad.policy != MinMakespan {
		denom = cluster.MaxMinDenominator(sc.members, ad.sub)
	}
	cluster.SoloModel(m, sc.members, ad.sub, denom)
}

// Extract copies the solution's block variables over the sub-problem's
// previous rows.
func (ad soloAdapter) Extract(s *sub, sol *lp.Solution) {
	n, r := len(s.blocks), ad.sub.NumTypes()
	s.slab = resize(s.slab, n*r)
	copy(s.slab, sol.X)
	if s.alloc == nil {
		s.alloc = &cluster.Allocation{}
	}
	s.alloc.X = resize(s.alloc.X, n)
	for i := range s.alloc.X {
		s.alloc.X[i] = s.slab[i*r : (i+1)*r : (i+1)*r]
	}
	s.alloc.LPVariables = s.model.NumVariables()
}
