package online

import (
	"fmt"
	"math"
	"slices"

	"pop/internal/cluster"
	"pop/internal/lp"
)

// pairAdapter is the Adapter for the space-sharing policy (§4.1 with GPU
// sharing, Fig 6) — the formulation whose pair variables break the
// one-block-per-client layout and kept it a cold solve before multi-block
// clients existed.
//
// Block layout, for n members over r GPU types: one solo slot block per
// member (in member order), then one shared slot block per pair of
// single-GPU members (canonical i<j member order, which stays splice-able
// under arrivals and departures because the engine appends members). Every
// block holds the slot's r time-fraction variables; a member's two rows —
// the time budget and the fairness row over all slots containing it — live
// in its solo block, pair blocks carry no rows. The shared epigraph t trails
// the block variables; the r capacity rows trail the block rows. A member's
// rows reference variables across many blocks, so splicing a pair block in
// fills coefficients into rows it does not own — RefreshModel rewrites them
// all, and the model's setters keep unchanged entries untouched.
type pairAdapter struct {
	*clusterState
}

func (ad *pairAdapter) Layout(p int, ids []int, layout []Block) []Block {
	r := ad.sub.NumTypes()
	for _, id := range ids {
		layout = append(layout, Block{Key: BlockKey{id, NoPartner}, Vars: r, Rows: 2})
	}
	for i, a := range ids {
		if ad.member(a).Scale != 1 {
			continue
		}
		for _, b := range ids[i+1:] {
			if ad.member(b).Scale != 1 {
				continue
			}
			layout = append(layout, Block{Key: BlockKey{a, b}, Vars: r, Rows: 0})
		}
	}
	return layout
}

// slotTerms gathers, for member id, the (variable, throughput) pairs of
// every slot containing it: its solo slot at full throughput, its shared
// slots at interference-reduced throughput.
func (ad *pairAdapter) slotTerms(layout []Block, id int) (vars []int, thr []float64) {
	r := ad.sub.NumTypes()
	j := ad.member(id)
	for q, b := range layout {
		if !b.Key.Contains(id) {
			continue
		}
		scale := 1.0
		if b.Key.B != NoPartner {
			other := b.Key.A
			if other == id {
				other = b.Key.B
			}
			scale = cluster.Interference(j, ad.member(other))
		}
		for i := 0; i < r; i++ {
			vars = append(vars, q*r+i)
			thr = append(thr, j.Throughput[i]*scale)
		}
	}
	return vars, thr
}

func (ad *pairAdapter) BuildModel(p int, layout []Block) *lp.Model {
	r := ad.sub.NumTypes()
	members := ad.soloMembers(layout)

	m := lp.NewModel(lp.Maximize)
	for range layout {
		m.AddVariables(r, 0, 0, 1)
	}
	tv := m.AddVariable(1, math.Inf(-1), lp.Inf, "t")

	eq := cluster.EqualShare(members, ad.sub)
	for _, j := range members {
		vars, thr := ad.slotTerms(layout, j.ID)
		ones := make([]float64, len(vars))
		for t := range ones {
			ones[t] = 1
		}
		m.AddConstraint(vars, ones, lp.LE, 1, "time")

		coefs, tc := pairFairCoefs(j, eq, thr)
		m.AddConstraint(append(slices.Clone(vars), tv), append(coefs, tc), lp.GE, 0, "fair")
	}
	for i := 0; i < r; i++ {
		idxs := make([]int, len(layout))
		loads := make([]float64, len(layout))
		for q, b := range layout {
			idxs[q] = q*r + i
			loads[q] = ad.slotLoad(b.Key)
		}
		m.AddConstraint(idxs, loads, lp.LE, ad.sub.NumGPUs[i], "gpus")
	}
	return m
}

// SpliceBlock inserts a slot block's variables; a solo block also brings the
// member's (initially empty) time and fairness rows. All coefficients —
// including the new slot's entries in other members' rows and in the shared
// capacity rows — are left to RefreshModel's fill-ins.
func (ad *pairAdapter) SpliceBlock(m *lp.Model, p int, b Block, varAt, rowAt int) {
	r := ad.sub.NumTypes()
	m.InsertVariables(varAt, r, 0, 0, 1)
	if b.Key.B == NoPartner {
		m.InsertConstraint(rowAt, nil, nil, lp.LE, 1, "time")
		m.InsertConstraint(rowAt+1, nil, nil, lp.GE, 0, "fair")
	}
}

func (ad *pairAdapter) RefreshModel(m *lp.Model, p int, layout []Block) {
	r := ad.sub.NumTypes()
	members := ad.soloMembers(layout)
	n := len(members)
	tv := len(layout) * r
	eq := cluster.EqualShare(members, ad.sub)
	for idx, j := range members {
		vars, thr := ad.slotTerms(layout, j.ID)
		ones := make([]float64, len(vars))
		for t := range ones {
			ones[t] = 1
		}
		m.SetCoeffs(2*idx, vars, ones)
		coefs, tc := pairFairCoefs(j, eq, thr)
		m.SetCoeffs(2*idx+1, vars, coefs)
		m.SetCoeff(2*idx+1, tv, tc)
	}
	idxs := make([]int, len(layout))
	loads := make([]float64, len(layout))
	for i := 0; i < r; i++ {
		for q, b := range layout {
			idxs[q] = q*r + i
			loads[q] = ad.slotLoad(b.Key)
		}
		m.SetCoeffs(2*n+i, idxs, loads)
		m.SetRHS(2*n+i, ad.sub.NumGPUs[i])
	}
}

func (ad *pairAdapter) Extract(p int, layout []Block, sol *lp.Solution, nVars int) error {
	if sol.Status != lp.Optimal {
		return fmt.Errorf("%v LP %v", ad.policy, sol.Status)
	}
	r := ad.sub.NumTypes()
	ids := soloIDs(layout)
	members := ad.soloMembers(layout)
	alloc := &cluster.Allocation{
		Pairs:       make([]cluster.Pair, len(layout)),
		PairX:       make([][]float64, len(layout)),
		EffThr:      make([]float64, len(ids)),
		LPVariables: nVars,
	}
	for q, b := range layout {
		pr := cluster.Pair{J1: b.Key.A, J2: b.Key.B}
		if b.Key.B == NoPartner {
			pr.J2 = -1
		}
		alloc.Pairs[q] = pr
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

// pairFairCoefs normalizes a member's slot throughputs into its fairness-row
// coefficients and epigraph coefficient; degenerate members (zero
// equal-share throughput) get the vacuous all-zero row, like the solo
// policies.
func pairFairCoefs(j cluster.Job, eqShare []float64, thr []float64) ([]float64, float64) {
	denom := j.Weight * cluster.EffectiveThroughput(j, eqShare) * j.Scale
	coefs := make([]float64, len(thr))
	if denom <= 0 {
		return coefs, 0
	}
	for t, v := range thr {
		coefs[t] = v / denom
	}
	return coefs, -1
}

// slotLoad is the GPU usage of a slot on each type it runs on: z_j for a
// solo slot, 1 for a shared slot.
func (ad *pairAdapter) slotLoad(k BlockKey) float64 {
	if k.B == NoPartner {
		return ad.member(k.A).Scale
	}
	return 1
}
