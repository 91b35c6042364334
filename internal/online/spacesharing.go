package online

import (
	"fmt"
	"slices"

	"pop/internal/cluster"
	"pop/internal/lp"
)

// pairAdapter is the Adapter for the space-sharing policy (§4.1 with GPU
// sharing, Fig 6) — the formulation whose pair variables break the
// one-block-per-client layout and kept it a cold solve before multi-block
// clients existed.
//
// Block layout: one block per cluster.Slots slot of the members — a solo
// slot block per member (in member order), then a shared slot block per
// pair of single-GPU members (canonical i<j member order, which stays
// splice-able under arrivals and departures because the engine appends
// members). Every block holds the slot's r time-fraction variables; a
// member's time and rate rows live in its solo block, pair blocks carry no
// rows — cluster.SpaceSharingModel's layout. A member's rows reference
// variables across many blocks, so splicing a pair block in fills
// coefficients into rows it does not own — RefreshModel rewrites them all,
// and the model's setters keep unchanged entries untouched.
type pairAdapter struct {
	*clusterState
}

func (ad *pairAdapter) Layout(p int, ids []int, layout []Block) []Block {
	r := ad.sub.NumTypes()
	members := make([]cluster.Job, len(ids))
	for i, id := range ids {
		members[i] = ad.member(id)
	}
	for _, s := range cluster.Slots(members) {
		rows := 0
		if s.J2 == NoPartner {
			rows = 2
		}
		layout = append(layout, Block{Key: BlockKey{s.J1, s.J2}, Vars: r, Rows: rows})
	}
	return layout
}

func (ad *pairAdapter) BuildModel(p int, layout []Block) *lp.Model {
	m, _ := cluster.SpaceSharingModel(ad.soloMembers(layout), ad.sub)
	return m
}

// SpliceBlock inserts a slot block's variables; a solo block also brings the
// member's (initially empty) time and rate rows. All coefficients —
// including the new slot's entries in other members' rows and in the shared
// capacity rows — are left to RefreshModel's fill-ins.
func (ad *pairAdapter) SpliceBlock(m *lp.Model, p int, b Block, varAt, rowAt int) {
	r := ad.sub.NumTypes()
	m.InsertVariables(varAt, r, 0, 0, 1)
	if b.Key.B == NoPartner {
		m.InsertConstraint(rowAt, nil, nil, lp.LE, 1, "time")
		m.InsertConstraint(rowAt+1, nil, nil, lp.GE, 0, "rate")
	}
}

func (ad *pairAdapter) RefreshModel(m *lp.Model, p int, layout []Block) {
	r := ad.sub.NumTypes()
	members := ad.soloMembers(layout)
	n := len(members)
	tv := len(layout) * r
	vars, thr, load := cluster.SlotTerms(members, slotsOf(layout), r)
	denom := cluster.MaxMinDenominator(members, ad.sub)
	for idx, j := range members {
		ones := make([]float64, len(vars[idx]))
		for t := range ones {
			ones[t] = 1
		}
		m.SetCoeffs(2*idx, vars[idx], ones)
		coefs := make([]float64, len(vars[idx]))
		tc := cluster.RateRow(thr[idx], denom(j), coefs)
		m.SetCoeffs(2*idx+1, vars[idx], coefs)
		m.SetCoeff(2*idx+1, tv, tc)
	}
	idxs := make([]int, len(layout))
	for i := 0; i < r; i++ {
		for q := range layout {
			idxs[q] = q*r + i
		}
		m.SetCoeffs(2*n+i, idxs, load)
		m.SetRHS(2*n+i, ad.sub.NumGPUs[i])
	}
}

// slotsOf reads the slot list off a layout: block q is slot q (NoPartner is
// cluster.Pair's solo marker too).
func slotsOf(layout []Block) []cluster.Pair {
	slots := make([]cluster.Pair, len(layout))
	for q, b := range layout {
		slots[q] = cluster.Pair{J1: b.Key.A, J2: b.Key.B}
	}
	return slots
}

func (ad *pairAdapter) Extract(p int, layout []Block, sol *lp.Solution, nVars int) error {
	if sol.Status != lp.Optimal {
		return fmt.Errorf("%v LP %v", ad.policy, sol.Status)
	}
	r := ad.sub.NumTypes()
	ids := soloIDs(layout)
	members := ad.soloMembers(layout)
	alloc := &cluster.Allocation{
		Pairs:       slotsOf(layout),
		PairX:       make([][]float64, len(layout)),
		EffThr:      make([]float64, len(ids)),
		LPVariables: nVars,
	}
	for q := range layout {
		alloc.PairX[q] = make([]float64, r)
		copy(alloc.PairX[q], sol.X[q*r:(q+1)*r])
	}
	cluster.FillPairEffThr(members, alloc)
	index := make(map[int]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	ad.results[p] = &clusterSubResult{
		ids:       slices.Clone(ids),
		index:     index,
		alloc:     alloc,
		objective: sol.Objective,
	}
	return nil
}

func (ad *pairAdapter) Clear(p int) { ad.clear(p) }
