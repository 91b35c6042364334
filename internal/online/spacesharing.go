package online

import (
	"pop/internal/cluster"
	"pop/internal/lp"
)

// pairAdapter is the adapter for the space-sharing policy (§4.1 with GPU
// sharing, Fig 6) — the formulation whose pair variables break the
// one-block-per-client layout and kept it a cold solve before multi-block
// clients existed.
//
// Block layout: one block per cluster.Slots slot of the members — a solo
// slot block per member (in member order), then a shared slot block per
// pair of single-GPU members (canonical i<j member order, in which
// survivors keep their relative order under arrivals and departures
// because the engine appends members). Every block holds the slot's r
// time-fraction variables; a member's time and rate rows live in its solo
// block, pair blocks carry no rows — cluster.SpaceSharingModel's layout. A
// member's rows reference variables across many blocks, so a membership
// change rebuilds the model; RefreshModel rewrites the rest, and the
// model's setters keep unchanged entries untouched.
type pairAdapter struct {
	*ClusterEngine
}

func (ad pairAdapter) Layout(ids []int, layout []block) []block {
	r := ad.sub.NumTypes()
	members := make([]cluster.Job, len(ids))
	for i, id := range ids {
		members[i] = ad.member(id)
	}
	for _, s := range cluster.Slots(members) {
		rows := 0
		if s.J2 == cluster.NoPartner {
			rows = 2
		}
		layout = append(layout, block{Key: blockKey{s.J1, s.J2}, Vars: r, Rows: rows})
	}
	return layout
}

func (ad pairAdapter) BuildModel(m *lp.Model, layout []block) {
	sc := ad.soloMembers(layout)
	defer ad.members.Put(sc)
	cluster.SpaceSharingModel(m, sc.members, ad.sub)
}

func (ad pairAdapter) RefreshModel(m *lp.Model, layout []block) {
	r := ad.sub.NumTypes()
	sc := ad.soloMembers(layout)
	defer ad.members.Put(sc)
	members := sc.members
	n := len(members)
	tv := len(layout) * r
	vars, thr, load := cluster.SlotTerms(members, slotsOf(layout), r)
	denom := cluster.MaxMinDenominator(members, ad.sub)
	constrained := false
	for idx, j := range members {
		ones := make([]float64, len(vars[idx]))
		for t := range ones {
			ones[t] = 1
		}
		m.SetCoeffs(2*idx, vars[idx], ones)
		coefs := make([]float64, len(vars[idx]))
		tc := cluster.RateRow(thr[idx], denom(j), coefs)
		constrained = constrained || tc != 0
		m.SetCoeffs(2*idx+1, vars[idx], coefs)
		m.SetCoeff(2*idx+1, tv, tc)
	}
	cluster.CapEpigraph(m, tv, constrained)
	idxs := make([]int, len(layout))
	for i := 0; i < r; i++ {
		for q := range layout {
			idxs[q] = q*r + i
		}
		m.SetCoeffs(2*n+i, idxs, load)
		m.SetRHS(2*n+i, ad.sub.NumGPUs[i])
	}
}

// slotsOf reads the slot list off a layout: block q is slot q.
func slotsOf(layout []block) []cluster.Pair {
	slots := make([]cluster.Pair, len(layout))
	for q, b := range layout {
		slots[q] = cluster.Pair{J1: b.Key.A, J2: b.Key.B}
	}
	return slots
}

// Extract reads every slot's time fractions and the members' effective
// throughputs.
func (ad pairAdapter) Extract(s *sub, sol *lp.Solution) {
	r := ad.sub.NumTypes()
	alloc := &cluster.Allocation{
		Pairs:       slotsOf(s.blocks),
		PairX:       make([][]float64, len(s.blocks)),
		EffThr:      make([]float64, len(s.ids)),
		LPVariables: s.model.NumVariables(),
	}
	for q := range s.blocks {
		alloc.PairX[q] = make([]float64, r)
		copy(alloc.PairX[q], sol.X[q*r:(q+1)*r])
	}
	sc := ad.soloMembers(s.blocks)
	cluster.FillPairEffThr(sc.members, alloc)
	ad.members.Put(sc)
	s.alloc = alloc
}
