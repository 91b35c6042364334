package lp

import (
	"math"
	"sort"
)

// refactorRef and initFTRef are luFactor.refactor and initFT as they stood
// before the sparse rewrite (less the eta-file branches, which went with the
// eta file), moved here as the differential oracle:
// four dense 0..m scans per column and independently grown per-column
// slices. TestRefactorMatchesReference and FuzzRefactor hold the production
// routine to this one bit for bit.
func (f *luFactor) refactorRef() bool {
	m := f.m
	f.rowEtas = f.rowEtas[:0]
	f.rowEtaNnz = 0
	f.ftrans = 0
	f.drift = false
	if f.lcols == nil {
		f.lcols = make([][]luEntry, m)
		f.ucols = make([][]luEntry, m)
		f.udiag = make([]float64, m)
		f.pr = make([]int, m)
		f.cperm = make([]int, m)
	}

	// Column order: ascending nonzero count (approximate Markowitz), ties
	// by position for determinism. Row counts feed the pivot tie-break.
	order := make([]int, m)
	colNnz := make([]int, m)
	rowCount := make([]int, m)
	for pos := 0; pos < m; pos++ {
		order[pos] = pos
		ind, _ := f.basisCol(pos)
		colNnz[pos] = len(ind)
		for _, r := range ind {
			rowCount[r]++
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if colNnz[order[a]] != colNnz[order[b]] {
			return colNnz[order[a]] < colNnz[order[b]]
		}
		return order[a] < order[b]
	})

	x := f.x
	for i := range f.elim {
		f.elim[i] = -1
	}
	for t := 0; t < m; t++ {
		pos := order[t]
		ind, val := f.basisCol(pos)
		for k, r := range ind {
			x[r] = val[k]
		}

		// Left-looking update: apply every earlier elimination step whose
		// pivot row currently carries a nonzero. Fill lands only on pivot
		// rows of later steps, so one ascending scan suffices.
		ucol := f.ucols[t][:0]
		for j := 0; j < t; j++ {
			xj := x[f.pr[j]]
			if xj == 0 {
				continue
			}
			ucol = append(ucol, luEntry{int32(j), xj})
			x[f.pr[j]] = 0 // consumed into U
			for _, e := range f.lcols[j] {
				x[e.idx] -= e.val * xj
			}
		}

		// Threshold partial pivoting among unpivoted rows: candidates
		// within 10× of the largest magnitude, preferring the row with the
		// fewest static nonzeros (Markowitz tie-break), then the smallest
		// index for determinism.
		vmax := 0.0
		for i := 0; i < m; i++ {
			if f.elim[i] >= 0 {
				continue
			}
			if v := math.Abs(x[i]); v > vmax {
				vmax = v
			}
		}
		if vmax < 1e-12 {
			// Singular: zero out scratch before failing.
			for i := range x {
				x[i] = 0
			}
			f.ucols[t] = ucol
			return false
		}
		piv := -1
		for i := 0; i < m; i++ {
			if f.elim[i] >= 0 || math.Abs(x[i]) < 0.1*vmax {
				continue
			}
			if piv < 0 || rowCount[i] < rowCount[piv] {
				piv = i
			}
		}

		d := x[piv]
		lcol := f.lcols[t][:0]
		for i := 0; i < m; i++ {
			if i == piv || f.elim[i] >= 0 || x[i] == 0 {
				continue
			}
			lcol = append(lcol, luEntry{int32(i), x[i] / d})
			x[i] = 0
		}
		x[piv] = 0
		f.elim[piv] = t
		f.pr[t] = piv
		f.cperm[t] = pos
		f.udiag[t] = d
		f.lcols[t] = lcol
		f.ucols[t] = ucol
	}
	f.initFTRef()
	return true
}

func (f *luFactor) initFTRef() {
	m := f.m
	if f.perm == nil {
		f.perm = make([]int, m)
		f.stepOf = make([]int, m)
		f.posH = make([]int, m)
		f.urows = make([][]luEntry, m)
		f.rowAcc = make([]float64, m)
	}
	nnz := m // diagonal
	for h := 0; h < m; h++ {
		f.perm[h] = h
		f.stepOf[h] = h
		f.posH[f.cperm[h]] = h
		f.urows[h] = f.urows[h][:0]
	}
	for h := 0; h < m; h++ {
		for _, e := range f.ucols[h] {
			f.urows[e.idx] = append(f.urows[e.idx], luEntry{int32(h), e.val})
		}
		nnz += len(f.ucols[h])
	}
	f.unnz = nnz
	f.unnz0 = nnz
}
