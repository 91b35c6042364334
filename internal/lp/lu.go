package lp

import (
	"math"
	"slices"
)

// luFactor is the sparse basis factor every solve starts on: B is factorized
// as P·B·Q = L·U by left-looking sparse Gaussian elimination with a
// Markowitz-style ordering (columns processed sparsest-first, threshold
// partial pivoting preferring low-count rows). Simplex pivots are absorbed by
// Forrest–Tomlin updates: the pivot modifies the stored U in place. The
// leaving column is replaced by the entering column's spike, the spiked row
// is cyclically rotated to the last triangular position, and its
// off-diagonal entries are eliminated by row operations recorded as a
// compact row eta. ftran/btran cost stays proportional to the factor's
// actual fill, and refactorization is scheduled adaptively: on measured U
// fill growth and on ftran residual drift sampled during the solve.
//
// On granular allocation LPs the basis columns hold only a handful of
// nonzeros each, so per-iteration solve time scales with factor fill rather
// than denseFactor's m². Refactorization does too: it costs
// O(nnz(B) + nnz(L) + nnz(U)) plus the elimination flops and a logarithm.
// Per column, the left-looking sweep pops a min-heap holding only the
// elimination steps whose pivot row carries a nonzero, and the pivot
// search, the L collection and the scratch clearing walk the list of rows
// the column touched — nothing scans 0..m. Warm re-solves and
// branch-and-bound nodes each start with one, so this is a per-solve cost,
// not an occasional one. See doc.go, "Refactorization".
//
// Vector-space bookkeeping for the Forrest–Tomlin updates: L's elimination
// steps are frozen at refactor time and double as row "handles" for U — row
// h of the triangular system U·z = L⁻¹P·a is the output of L step h, and
// handles keep their identity as updates reorder U's triangular structure.
// perm maps the current triangular order to handles (perm[step] = handle);
// cperm maps handles to basis positions and never changes between
// refactorizations (a replaced column keeps its position and its handle).
type luFactor struct {
	s *simplex
	m int

	// Factorization of the basis at the last refactor. Elimination step t
	// pivots on original row pr[t] and eliminates the column at basis
	// position cperm[t]. lcols[t] holds the below-pivot multipliers of L
	// column t as (original row, value); the unit diagonal is implicit.
	// ucols[h] holds the above-diagonal entries of U column h as
	// (row handle, value); udiag[h] is the pivot. Handles and triangular
	// steps coincide only until the first update: the triangular order lives
	// in perm/stepOf.
	lcols [][]luEntry
	ucols [][]luEntry
	udiag []float64
	pr    []int
	cperm []int

	// Forrest–Tomlin state. urows mirrors ucols row-wise: urows[h] holds
	// row h's entries right of the diagonal
	// as (column handle, value). posH inverts cperm. rowEtas records, in
	// chronological order, the row eliminations applied to U; each is
	// applied between the L solve and the U solve during ftran (and
	// transposed, in reverse, during btran).
	perm      []int
	stepOf    []int
	posH      []int
	urows     [][]luEntry
	rowEtas   []rowEta
	rowEtaNnz int
	unnz      int // current U fill (diagonal + off-diagonal)
	unnz0     int // U fill right after the last refactor

	// Adaptive-refactor state: ftrans clocks ftranCol calls so every 64th
	// one measures the true residual ‖B·w − a_q‖∞; drift latches the
	// verdict until the next refactor.
	ftrans int
	drift  bool

	// Factor storage. slab holds every L and U column of the last refactor
	// back to back in elimination order (U column t, then L column t);
	// lcols/ucols are capacity-clipped views into it. rslab backs urows the
	// same way. L never changes between refactors; a Forrest–Tomlin update
	// edits U lists inside their views, and a list that outgrows its view
	// moves into arena (roomFor), which the next refactor rewinds. etaEnts
	// holds the row etas' entries back to back and is rewound with it. All
	// four are reused by the next refactor on this factor, and — the factor
	// living in a recycled workspace — by the next solve.
	slab, rslab, arena, etaEnts []luEntry

	// Refactor scratch, carved from one allocation (ints): order is the column
	// elimination order, rowCount the static row counts of the basis, mark
	// stamps rows already on a worklist for the current column, heap is the
	// min-heap of pending elimination steps, cand lists the unpivoted rows
	// the current column touches, and ptr holds the slab offsets (2 per
	// column) until the views are cut. work counts the entries the last
	// refactor visited; only the linearity test reads it.
	ints                  []int32
	order, rowCount, mark []int32
	heap, cand, ptr       []int32
	work                  int

	// Scratch: x is row-space (all zeros between calls), g and pos are
	// handle/position-space, elim maps original row -> elimination
	// step (-1 while unpivoted during factor). rowAcc is the FT row
	// elimination's handle-space accumulator with its touched-index list
	// rlist. artInd/artVal back the one-entry column returned by basisCol for
	// artificials.
	x, g, pos []float64
	elim      []int
	rowAcc    []float64
	rlist     []int
	artInd    [1]int32
	artVal    [1]float64

	// spike is the Forrest–Tomlin spike of the column the last ftranCol
	// solved: its handle-space nonzeros after L and the row etas, which is
	// U·w without forming it. spikeOK says it describes the current factor;
	// refactor and update clear it.
	spike   []luEntry
	spikeOK bool
}

type luEntry struct {
	idx int32
	val float64
}

// rowEta records one Forrest–Tomlin row elimination: row `target` of the
// spiked U had each row h in ents subtracted from it with multiplier val,
// leaving only its new diagonal.
type rowEta struct {
	target int
	ents   []luEntry
}

// newLUFactor returns a factor of its own for s's basis, outside any
// workspace.
func newLUFactor(s *simplex) *luFactor {
	return new(luFactor).reset(s)
}

// reset points the factor at solver s and reshapes every buffer to s's row
// count, keeping the arrays that are large enough. Nothing the factor held
// before is trusted: the accumulators that must read zero between calls are
// cleared here, and everything else is written by refactor before it is
// read.
func (f *luFactor) reset(s *simplex) *luFactor {
	m := s.m
	f.s, f.m = s, m
	f.x = zeroed(f.x, m)
	f.g, f.pos, f.udiag = sized(f.g, m), sized(f.pos, m), sized(f.udiag, m)
	f.elim, f.pr, f.cperm = sized(f.elim, m), sized(f.pr, m), sized(f.cperm, m)
	f.lcols, f.ucols = sized(f.lcols, m), sized(f.ucols, m)
	ints := sized(f.ints, 7*m+2)
	f.ints = ints
	f.order, f.rowCount, f.mark = ints[:m:m], ints[m:2*m:2*m], ints[2*m:3*m:3*m]
	f.heap, f.cand, f.ptr = ints[3*m:3*m:4*m], ints[4*m:4*m:5*m], ints[5*m:]
	f.perm, f.stepOf, f.posH = sized(f.perm, m), sized(f.stepOf, m), sized(f.posH, m)
	f.urows = sized(f.urows, m)
	f.rowAcc = zeroed(f.rowAcc, m)
	f.spike, f.spikeOK = f.spike[:0], false
	return f
}

// basisCol returns the sparse column of the basis occupying position pos.
func (f *luFactor) basisCol(pos int) ([]int32, []float64) {
	s := f.s
	j := s.basis[pos]
	if j >= s.artStart {
		k := j - s.artStart
		f.artInd[0] = int32(k)
		f.artVal[0] = s.artSign[k]
		return f.artInd[:], f.artVal[:]
	}
	return s.std.col(j)
}

func (f *luFactor) refactor() bool {
	m := f.m
	f.rowEtas = f.rowEtas[:0]
	f.rowEtaNnz = 0
	f.ftrans = 0
	f.drift = false
	f.spikeOK = false
	f.arena = f.arena[:0]
	f.etaEnts = f.etaEnts[:0]
	f.work = 0

	// Column order: ascending nonzero count (approximate Markowitz), ties
	// by position for determinism — a stable counting sort, with ptr
	// doubling as the bucket array before it holds slab offsets. Row counts
	// feed the pivot tie-break.
	order, rowCount, mark, ptr := f.order, f.rowCount, f.mark, f.ptr
	bucket := ptr[:m+2]
	clear(bucket)
	clear(rowCount)
	clear(mark)
	nnzB := 0
	for pos := 0; pos < m; pos++ {
		ind, _ := f.basisCol(pos)
		bucket[len(ind)+1]++
		nnzB += len(ind)
		for _, r := range ind {
			rowCount[r]++
		}
	}
	for c := 1; c <= m; c++ {
		bucket[c] += bucket[c-1]
	}
	for pos := 0; pos < m; pos++ {
		ind, _ := f.basisCol(pos)
		order[bucket[len(ind)]] = int32(pos)
		bucket[len(ind)]++
	}
	f.work += 2*nnzB + 4*m

	x, elim, pr := f.x, f.elim, f.pr
	for i := range elim {
		elim[i] = -1
	}
	slab := f.slab[:0]
	if cap(slab) < nnzB {
		// nnz(L)+nnz(U) is at least nnz(B) less the m pivots, and little
		// more on the sparse bases this factor exists for.
		slab = make([]luEntry, 0, nnzB)
	}
	for t := 0; t < m; t++ {
		pos := int(order[t])
		ind, val := f.basisCol(pos)

		// Scatter the column. A row touched for the first time joins one of
		// two worklists, stamped in mark so it joins once: an already
		// pivoted row queues its elimination step on the heap, an unpivoted
		// one becomes a pivot candidate.
		stamp := int32(t + 1)
		heap, cand := f.heap[:0], f.cand[:0]
		for k, r := range ind {
			x[r] = val[k]
			if mark[r] != stamp {
				mark[r] = stamp
				heap, cand = enlist(r, elim[r], heap, cand)
			}
		}

		// Left-looking update: apply, in ascending order, every earlier
		// elimination step whose pivot row currently carries a nonzero. L
		// column j only holds rows still unpivoted at step j, so fill lands
		// on pivot rows of later steps (or on candidates): everything pushed
		// while step j is applied exceeds j, and popping the minimum replays
		// exactly the arithmetic of a dense j = 0..t-1 scan.
		ptr[2*t] = int32(len(slab))
		f.work += len(ind)
		for len(heap) > 0 {
			var j int32
			j, heap = heapPop(heap)
			xj := x[pr[j]]
			if xj == 0 {
				continue
			}
			slab = append(slab, luEntry{j, xj})
			x[pr[j]] = 0 // consumed into U
			lcol := slab[ptr[2*j+1]:ptr[2*j+2]]
			f.work += len(lcol) + 1
			for _, e := range lcol {
				x[e.idx] -= e.val * xj
				if mark[e.idx] != stamp {
					mark[e.idx] = stamp
					heap, cand = enlist(e.idx, elim[e.idx], heap, cand)
				}
			}
		}
		ptr[2*t+1] = int32(len(slab))
		f.work += 3 * len(cand)

		// Threshold partial pivoting among the candidates (every other
		// unpivoted row holds zero): those within 10× of the largest
		// magnitude, preferring the row with the fewest static nonzeros
		// (Markowitz tie-break), then the smallest index for determinism.
		vmax := 0.0
		for _, i := range cand {
			if v := math.Abs(x[i]); v > vmax {
				vmax = v
			}
		}
		if vmax < 1e-12 {
			// Singular: zero out scratch before failing.
			for _, i := range cand {
				x[i] = 0
			}
			f.slab = slab
			return false
		}
		piv := int32(-1)
		for _, i := range cand {
			if math.Abs(x[i]) < 0.1*vmax {
				continue
			}
			if piv < 0 || rowCount[i] < rowCount[piv] || rowCount[i] == rowCount[piv] && i < piv {
				piv = i
			}
		}

		// L column t in ascending row order: btran accumulates along it, so
		// the order is part of the result.
		d := x[piv]
		slices.Sort(cand)
		for _, i := range cand {
			if i == piv || x[i] == 0 {
				continue
			}
			slab = append(slab, luEntry{i, x[i] / d})
			x[i] = 0
		}
		x[piv] = 0
		elim[piv] = t
		pr[t] = int(piv)
		f.cperm[t] = pos
		f.udiag[t] = d
	}
	ptr[2*m] = int32(len(slab))
	f.slab = slab

	// Per-column views into the slab, capacity-clipped so a Forrest–Tomlin
	// append that outgrows one moves that list alone.
	for t := 0; t < m; t++ {
		u, l, e := ptr[2*t], ptr[2*t+1], ptr[2*t+2]
		f.ucols[t] = slab[u:l:l]
		f.lcols[t] = slab[l:e:e]
	}
	f.initFT()
	return true
}

// enlist files a row the current column has just reached: a row pivoted at
// step e queues that step on the heap, an unpivoted one (e < 0) becomes a
// pivot candidate.
func enlist(r int32, e int, heap, cand []int32) ([]int32, []int32) {
	if e >= 0 {
		return heapPush(heap, int32(e)), cand
	}
	return heap, append(cand, r)
}

// heapPush and heapPop maintain a binary min-heap of elimination steps.
func heapPush(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= v {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = v
	return h
}

func heapPop(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	v := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[c] >= v {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = v
	}
	return top, h
}

// initFT (re)derives the Forrest–Tomlin bookkeeping from a fresh
// factorization: identity triangular order, the row-wise mirror of U
// (counted, then filled into its own slab in ascending column order), the
// position→handle map, and the fill baseline the adaptive refactor trigger
// measures growth against.
func (f *luFactor) initFT() {
	m := f.m
	next := f.ptr[:m+1] // the slab offsets are spent once the views exist
	clear(next)
	nnz := 0
	for h := 0; h < m; h++ {
		f.perm[h] = h
		f.stepOf[h] = h
		f.posH[f.cperm[h]] = h
		for _, e := range f.ucols[h] {
			next[e.idx+1]++
		}
		nnz += len(f.ucols[h])
	}
	for h := 1; h <= m; h++ {
		next[h] += next[h-1]
	}
	if cap(f.rslab) < nnz {
		// At least double, so fill creeping up from one refactor to the next
		// does not buy a new slab every time.
		f.rslab = make([]luEntry, max(nnz, 2*cap(f.rslab)))
	}
	rslab := f.rslab[:nnz]
	for h := 0; h < m; h++ {
		for _, e := range f.ucols[h] {
			rslab[next[e.idx]] = luEntry{int32(h), e.val}
			next[e.idx]++
		}
	}
	// next[h] has advanced from row h's start to its end.
	lo := int32(0)
	for h := 0; h < m; h++ {
		f.urows[h] = rslab[lo:next[h]:next[h]]
		lo = next[h]
	}
	f.work += 2*nnz + 3*m
	f.unnz = m + nnz // diagonal included
	f.unnz0 = f.unnz
}

// ftranDense solves B x = v through L, the row etas, and U: v enters in row
// space and leaves in position space.
func (f *luFactor) ftranDense(v []float64) {
	f.ftranLower(v)
	f.ftranUpper(v)
}

// ftranLower is ftranDense's first half: it solves L y = v and replays the
// row etas, leaving the handle-indexed result in f.g (v is consumed as
// scratch).
func (f *luFactor) ftranLower(v []float64) {
	m := f.m
	g := f.g
	// Forward: L y = v. The output is handle-indexed (handles are L steps).
	for t := 0; t < m; t++ {
		yt := v[f.pr[t]]
		g[t] = yt
		if yt != 0 {
			for _, e := range f.lcols[t] {
				v[e.idx] -= e.val * yt
			}
		}
	}
	// Row etas in chronological order: each one replays the elimination of a
	// spiked row on the right-hand side.
	for i := range f.rowEtas {
		e := &f.rowEtas[i]
		acc := g[e.target]
		for _, t := range e.ents {
			acc -= t.val * g[t.idx]
		}
		g[e.target] = acc
	}
}

// ftranUpper is ftranDense's second half: it solves U z = f.g and scatters z
// into v in position space.
func (f *luFactor) ftranUpper(v []float64) {
	m := f.m
	g := f.g
	// Backward: U z = y, columns visited in reverse triangular order.
	for ti := m - 1; ti >= 0; ti-- {
		h := f.perm[ti]
		zt := g[h] / f.udiag[h]
		g[h] = zt
		if zt != 0 {
			for _, e := range f.ucols[h] {
				g[e.idx] -= e.val * zt
			}
		}
	}
	// Scatter into position space.
	for t := 0; t < m; t++ {
		f.pos[f.cperm[t]] = g[t]
	}
	copy(v, f.pos)
}

// solveLUT solves Bᵀ y = c through Uᵀ, the transposed row etas, and Lᵀ:
// c enters in position space and leaves in row space.
func (f *luFactor) solveLUT(c []float64) {
	m := f.m
	g := f.g
	for t := 0; t < m; t++ {
		g[t] = c[f.cperm[t]]
	}
	// Forward: Uᵀ g' = g in triangular order.
	for ti := 0; ti < m; ti++ {
		h := f.perm[ti]
		acc := g[h]
		for _, e := range f.ucols[h] {
			acc -= e.val * g[e.idx]
		}
		g[h] = acc / f.udiag[h]
	}
	// Transposed row etas in reverse chronological order: each spreads the
	// target component back over its eliminators.
	for i := len(f.rowEtas) - 1; i >= 0; i-- {
		e := &f.rowEtas[i]
		gt := g[e.target]
		if gt != 0 {
			for _, t := range e.ents {
				g[t.idx] -= t.val * gt
			}
		}
	}
	// Backward: Lᵀ y = g'. L column t touches only rows pivoted later, so
	// a descending sweep resolves every dependency.
	for t := m - 1; t >= 0; t-- {
		acc := g[t]
		for _, e := range f.lcols[t] {
			acc -= e.val * c[e.idx]
		}
		c[f.pr[t]] = acc
	}
}

func (f *luFactor) btranCost(y []float64) {
	s := f.s
	for i := 0; i < f.m; i++ {
		y[i] = s.cost[s.basis[i]]
	}
	f.solveLUT(y)
}

func (f *luFactor) btranUnit(r int, z []float64) {
	for i := range z {
		z[i] = 0
	}
	z[r] = 1
	f.solveLUT(z)
}

func (f *luFactor) ftranCol(q int, w []float64) {
	s := f.s
	x := f.x
	if q >= s.artStart {
		k := q - s.artStart
		x[k] = s.artSign[k]
	} else {
		ind, val := s.std.col(q)
		for t, r := range ind {
			x[r] = val[t]
		}
	}
	copy(w, x)
	for i := range x {
		x[i] = 0
	}
	f.ftranLower(w)
	// Halfway through, f.g holds the column in the factor's internal frame:
	// the spike a Forrest–Tomlin update installs if this column enters.
	spike := f.spike[:0]
	for h, v := range f.g[:f.m] {
		if v != 0 {
			spike = append(spike, luEntry{int32(h), v})
		}
	}
	f.spike, f.spikeOK = spike, true
	f.ftranUpper(w)
	if !f.drift {
		// Sampled drift measurement: every 64th column solve verifies the
		// factorization against the actual basis by computing the true
		// residual B·w − a_q. Exceeding the tolerance latches `drift`, and
		// wantRefactor schedules a rebuild before the next pivot.
		f.ftrans++
		if f.ftrans&63 == 0 {
			f.measureDrift(q, w)
		}
	}
}

// measureDrift computes r = B·w − a_q in row space and latches f.drift when
// ‖r‖∞ is out of proportion to the operands — the honest signal that the
// accumulated updates have degraded the factorization.
func (f *luFactor) measureDrift(q int, w []float64) {
	s := f.s
	x := f.x // all zeros on entry; restored to zeros before returning
	wmax := 0.0
	for p := 0; p < f.m; p++ {
		wp := w[p]
		if wp == 0 {
			continue
		}
		if a := math.Abs(wp); a > wmax {
			wmax = a
		}
		ind, val := f.basisCol(p)
		for t, r := range ind {
			x[r] += val[t] * wp
		}
	}
	amax := 0.0
	if q >= s.artStart {
		k := q - s.artStart
		x[k] -= s.artSign[k]
		amax = 1
	} else {
		ind, val := s.std.col(q)
		for t, r := range ind {
			x[r] -= val[t]
			if a := math.Abs(val[t]); a > amax {
				amax = a
			}
		}
	}
	res := 0.0
	for i := range x {
		if a := math.Abs(x[i]); a > res {
			res = a
		}
		x[i] = 0
	}
	if res > 1e-9*(1+amax+wmax) {
		f.drift = true
	}
}

// update folds one pivot into the stored factors in place. The entering
// column is the one the last ftranCol solved (its ftran w is not read): the
// column at handle h0 (basis position `leave`) is replaced by the spike that
// ftranCol saved, h0 is rotated to the last triangular position, and the
// now out-of-place old row h0 is eliminated by row operations recorded as
// one rowEta. Returns false — leaving the caller to refactor from scratch,
// which rebuilds all state — when no spike was saved since the last refactor
// or update, when the elimination is numerically unstable (huge multiplier),
// or when the final diagonal is negligible.
func (f *luFactor) update(leave int, _ []float64) bool {
	if !f.spikeOK {
		return false
	}
	f.spikeOK = false
	m := f.m
	h0 := f.posH[leave]

	// Drop the old column h0 — the spike replaces it wholesale — and detach
	// the old row h0 from the column lists; its entries seed the
	// elimination below.
	for _, e := range f.ucols[h0] {
		f.urows[e.idx] = removeHandle(f.urows[e.idx], h0)
	}
	f.unnz -= len(f.ucols[h0])
	f.ucols[h0] = f.ucols[h0][:0]

	oldRow := f.urows[h0]
	racc := f.rowAcc
	rtouch := f.rlist[:0]
	for _, e := range oldRow {
		f.ucols[e.idx] = removeHandle(f.ucols[e.idx], h0)
		racc[e.idx] = e.val
		rtouch = append(rtouch, int(e.idx))
	}
	f.unnz -= len(oldRow)
	f.urows[h0] = oldRow[:0]

	// Cyclic rotation: handles between h0's old step and the end shift one
	// step earlier; h0 becomes the last step.
	t0 := f.stepOf[h0]
	for t := t0; t < m-1; t++ {
		h := f.perm[t+1]
		f.perm[t] = h
		f.stepOf[h] = t
	}
	f.perm[m-1] = h0
	f.stepOf[h0] = m - 1

	// Install the spike as the new column h0 (every other handle now sits
	// at an earlier step, so all entries are above the diagonal).
	d := 0.0
	ucol := f.ucols[h0]
	for _, e := range f.spike {
		if int(e.idx) == h0 {
			d = e.val
			continue
		}
		ucol = append(f.roomFor(ucol), e)
		f.urows[e.idx] = append(f.roomFor(f.urows[e.idx]), luEntry{int32(h0), e.val})
	}
	f.ucols[h0] = ucol
	f.unnz += len(ucol)

	// Eliminate the old row h0 against rows t0..m-2 in triangular order.
	// Entries the row ops place in column h0 fold into the new diagonal d;
	// everything else is fill tracked in racc. Entries below the drop
	// tolerance are discarded (the sampled drift check guards the
	// accumulated error).
	eta0 := len(f.etaEnts)
	for t := t0; t < m-1; t++ {
		h := f.perm[t]
		v := racc[h]
		if v == 0 {
			continue
		}
		racc[h] = 0
		if math.Abs(v) <= 1e-13 {
			continue
		}
		mult := v / f.udiag[h]
		if math.Abs(mult) > 1e7 {
			for _, rr := range rtouch {
				racc[rr] = 0
			}
			f.rlist = rtouch[:0]
			f.etaEnts = f.etaEnts[:eta0]
			f.s.ftRejects++
			f.s.opts.Obs.Instant("lp.ft-reject", nil)
			return false
		}
		f.etaEnts = append(f.etaEnts, luEntry{int32(h), mult})
		for _, e := range f.urows[h] {
			if int(e.idx) == h0 {
				d -= mult * e.val
			} else {
				if racc[e.idx] == 0 {
					rtouch = append(rtouch, int(e.idx))
				}
				racc[e.idx] -= mult * e.val
			}
		}
	}
	for _, rr := range rtouch {
		racc[rr] = 0
	}
	f.rlist = rtouch[:0]

	if math.Abs(d) < 1e-11 {
		f.etaEnts = f.etaEnts[:eta0]
		f.s.ftRejects++
		f.s.opts.Obs.Instant("lp.ft-reject", nil)
		return false
	}
	f.udiag[h0] = d
	// The eta's entries stay where they were appended; a later append that
	// moves etaEnts to a larger array leaves this view on the old one.
	if ents := f.etaEnts[eta0:len(f.etaEnts):len(f.etaEnts)]; len(ents) > 0 {
		f.rowEtas = append(f.rowEtas, rowEta{target: h0, ents: ents})
		f.rowEtaNnz += len(ents)
	}
	f.s.ftUpdates++
	return true
}

// roomFor returns list with room for one more entry. A full list — one
// that has outgrown its slab view — moves to twice the capacity inside the
// update arena, so steady-state updates allocate nothing; the copy it
// leaves behind is dead until the next refactor rewinds the arena.
func (f *luFactor) roomFor(list []luEntry) []luEntry {
	if len(list) < cap(list) {
		return list
	}
	n := max(4, 2*cap(list))
	if len(f.arena)+n > cap(f.arena) {
		// Views into the old chunk stay valid; it is garbage after the next
		// refactor.
		f.arena = make([]luEntry, 0, max(n, 2*cap(f.arena), f.m))
	}
	off := len(f.arena)
	f.arena = f.arena[:off+n]
	moved := f.arena[off : off+len(list) : off+n]
	copy(moved, list)
	return moved
}

// removeHandle swap-removes the entry with index h from ents (entry order
// within U rows/columns is not meaningful).
func removeHandle(ents []luEntry, h int) []luEntry {
	for t := range ents {
		if int(ents[t].idx) == h {
			last := len(ents) - 1
			ents[t] = ents[last]
			return ents[:last]
		}
	}
	return ents
}

// wantRefactor triggers an early refactorization, adaptively: on measured
// ftran residual drift, or on the factor's live fill (U plus the row eta
// file) outgrowing the post-refactor baseline. The trigger fires at most
// once per rebuild (the callers refactor immediately), so the counters
// book one refactor reason each.
func (f *luFactor) wantRefactor() bool {
	if f.drift {
		f.s.driftRefactors++
		f.s.opts.Obs.Instant("lp.drift-refactor", nil)
		return true
	}
	if f.unnz+f.rowEtaNnz > 2*f.unnz0+4*f.m+64 {
		f.s.fillRefactors++
		return true
	}
	return false
}
