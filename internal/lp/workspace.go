package lp

import (
	"math"
	"sync"
	"weak"
)

// workspace is the working memory of one simplex run: the per-column and
// per-row vectors, the pricing weights and ratio-test scratch, and the sparse
// basis factor with its slabs. A solve takes one from the workspaces free
// list, reshapes each buffer to its own dimensions as its start strategy
// installs a basis (zeroed, sized and luFactor.reset never trust the
// previous contents), and hands it back once the Solution has been copied
// out. It belongs to the solving goroutine for that long and to nobody in
// between — not to the Model, whose re-solves would otherwise each keep a
// model-sized workspace resident — so branch-and-bound nodes, batch
// sub-problems and served re-solves all draw on the same few.
type workspace struct {
	// Per-column state; artificial columns live at indices ncols..ncols+m-1.
	status []int8
	x      []float64

	// cost is the objective being minimized in the current phase.
	cost []float64

	// Basis: basis[i] is the column occupying row position i.
	basis []int

	// artSign[i] is the coefficient (±1) of the artificial for row i.
	artSign []float64

	// Scratch buffers.
	y, w, rhs []float64

	// Pricing. dj holds the reduced costs of the structural and slack
	// columns, kept up to date across pivots (see pivotRow). rowPtr, rowCol
	// and rowVal are a row-wise copy of those columns of A, built by a
	// solve's first pivot. rho is the btranUnit scratch of a pivot row ρ,
	// and alpha holds the pivot row αᵣ = ρᵀA on the columns listed in
	// alphaJ (zero elsewhere).
	dj, rho, alpha []float64
	alphaJ         []int32
	rowPtr, rowCol []int32
	rowVal         []float64

	// Dual devex reference weights over basis positions (sized and reset by
	// initWarmDual).
	dualW []float64

	// Harris dual ratio test scratch: eligible entering candidates stashed
	// by the relaxed pass so the exact pass walks only those.
	dualCandJ []int32
	dualCandA []float64
	dualCandD []float64

	// saved holds the true bounds warmRepair relaxed for the current pass.
	saved []savedBound

	lu luFactor
}

// workspaces is the free list solves draw on. It holds its workspaces weakly:
// a garbage collection frees those no solve is using, so pooling costs a
// process nothing it keeps — a batch of cold solves does not leave
// solve-sized buffers behind it — while between collections back-to-back
// solves (a served round's re-solves, a branch-and-bound plunge) reuse them.
// sync.Pool would keep each workspace alive through one more collection,
// which on the small heaps of the batch paths is most of the heap.
var workspaces struct {
	mu   sync.Mutex
	free []weak.Pointer[workspace]
}

// acquireWorkspace returns a free workspace, or a new one when the list holds
// none that survived.
func acquireWorkspace() *workspace {
	workspaces.mu.Lock()
	defer workspaces.mu.Unlock()
	for n := len(workspaces.free); n > 0; n = len(workspaces.free) {
		ws := workspaces.free[n-1].Value()
		workspaces.free = workspaces.free[:n-1]
		if ws != nil {
			return ws
		}
	}
	return new(workspace)
}

// releaseHook, when set, sees every workspace on its way back to the free list.
// It is a test hook: the lp suite (in TestMain) and, through the lp_poison
// build tag, other packages' suites set it to (*workspace).poison, so that a
// solve which reads what an earlier one left behind goes wrong loudly.
var releaseHook func(*workspace)

// release returns the solver's workspace to the free list. Callers run it only
// after a solve has returned normally: a workspace abandoned by a panic is
// left to the garbage collector instead.
func (s *simplex) release() {
	ws := s.workspace
	s.workspace, s.bas = nil, nil
	ws.lu.s = nil // the free list must not keep the model's matrix reachable
	if releaseHook != nil {
		releaseHook(ws)
	}
	workspaces.mu.Lock()
	workspaces.free = append(workspaces.free, weak.Make(ws))
	workspaces.mu.Unlock()
}

// sized returns buf resliced to n entries, on a new array when buf is too
// small. The contents are whatever the buffer last held: callers overwrite
// every entry.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed is sized with every entry cleared.
func zeroed[T any](buf []T, n int) []T {
	buf = sized(buf, n)
	clear(buf)
	return buf
}

// fill overwrites the whole capacity of every buffer with v.
func fill[T any](v T, bufs ...[]T) {
	for _, b := range bufs {
		b = b[:cap(b)]
		for i := range b {
			b[i] = v
		}
	}
}

// poison overwrites every buffer of the workspace with values no solve
// produces: NaN in the floats, -1 in the integers, nil views.
func (ws *workspace) poison() {
	f := &ws.lu
	nan := math.NaN()
	fill(nan, ws.x, ws.cost, ws.artSign, ws.y, ws.w, ws.rhs, ws.dj, ws.rho, ws.alpha, ws.rowVal,
		ws.dualW, ws.dualCandA, ws.dualCandD, f.udiag, f.x, f.g, f.pos, f.rowAcc)
	fill(-1, ws.status)
	fill(-1, ws.alphaJ, ws.rowPtr, ws.rowCol, ws.dualCandJ, f.ints)
	fill(-1, ws.basis, f.pr, f.cperm, f.perm, f.stepOf, f.posH, f.elim, f.rlist)
	fill(luEntry{-1, nan}, f.slab, f.rslab, f.arena, f.etaEnts, f.spike)
	fill(savedBound{-1, nan, nan}, ws.saved)
	fill(nil, f.lcols, f.ucols, f.urows)
	fill(rowEta{}, f.rowEtas)
	f.m, f.unnz, f.unnz0, f.rowEtaNnz, f.ftrans = -1, -1, -1, -1, -1
	f.spikeOK = true // an update that trusts a spike it did not save installs NaN
}
