package lp

import "math"

// basisFactor maintains a factorized representation of the current basis
// matrix B (columns s.basis[0..m-1] of the standardized constraint matrix,
// including artificials). The simplex core is written against this
// interface; luFactor, the factor every solve starts on, keeps a sparse LU
// factorization with Forrest–Tomlin updates, and denseFactor, the one a
// solve in numerical trouble falls back to, keeps an explicit inverse.
//
// Vector spaces: "row space" indexes original constraint rows, "position
// space" indexes basis positions (w[i] pairs with s.basis[i]). B maps
// position space to row space.
type basisFactor interface {
	// refactor rebuilds the factorization from s.basis. It returns false
	// if the basis is numerically singular.
	refactor() bool
	// ftranCol computes w = B⁻¹ A_q for column q (structural, slack, or
	// artificial) into w (position space). It returns w's nonzero positions
	// in ascending order when it knows them, nil when the caller must scan.
	ftranCol(q int, w []float64) []int32
	// ftranDense solves B x = v in place: v enters in row space and leaves
	// holding x in position space.
	ftranDense(v []float64)
	// btranCost computes y = B⁻ᵀ c_B into y (row space), reading the
	// current phase costs of the basic columns.
	btranCost(y []float64)
	// btranUnit computes z = B⁻ᵀ e_r into z (row space) for basis
	// position r; zᵀ is row r of B⁻¹, from which every pivot row is priced.
	// It returns z's nonzero rows like ftranCol returns w's positions.
	btranUnit(r int, z []float64) []int32
	// update records the pivot that replaced the column at basis position
	// `leave` with the column whose ftran is w, which must be the column
	// the last ftranCol solved (luFactor installs what that call saved).
	// It returns false if the pivot is too unstable to absorb, in which
	// case the caller must refactor.
	update(leave int, w []float64) bool
	// wantRefactor reports that accumulated update fill makes an early
	// refactorization worthwhile.
	wantRefactor() bool
}

// denseFactor is the fallback factor and the tests' reference: an explicit
// dense m×m basis inverse, row-major in position-major order
// (binv[i*m+k] = (B⁻¹)[position i][row k]), maintained by rank-1
// transformations and rebuilt by Gauss-Jordan elimination.
type denseFactor struct {
	s    *simplex
	binv []float64
	tmp  []float64
}

func newDenseFactor(s *simplex) *denseFactor {
	return &denseFactor{s: s, tmp: make([]float64, s.m)}
}

func (d *denseFactor) refactor() bool {
	s := d.s
	m := s.m
	bm := make([]float64, m*m)
	for pos, j := range s.basis {
		if j >= s.artStart {
			k := j - s.artStart
			bm[k*m+pos] = s.artSign[k]
			continue
		}
		ind, val := s.std.col(j)
		for t, r := range ind {
			bm[int(r)*m+pos] = val[t]
		}
	}
	inv, ok := invertDense(bm, m)
	if !ok {
		return false
	}
	d.binv = inv
	return true
}

func (d *denseFactor) ftranCol(q int, w []float64) []int32 {
	s := d.s
	m := s.m
	for i := range w {
		w[i] = 0
	}
	if q >= s.artStart {
		k := q - s.artStart
		sign := s.artSign[k]
		for i := 0; i < m; i++ {
			w[i] = d.binv[i*m+k] * sign
		}
		return nil
	}
	ind, val := s.std.col(q)
	for t, r := range ind {
		v := val[t]
		if v == 0 {
			continue
		}
		ri := int(r)
		for i := 0; i < m; i++ {
			w[i] += d.binv[i*m+ri] * v
		}
	}
	return nil
}

func (d *denseFactor) ftranDense(v []float64) {
	m := d.s.m
	for i := 0; i < m; i++ {
		row := d.binv[i*m : (i+1)*m]
		sum := 0.0
		for k, bv := range row {
			if bv != 0 {
				sum += bv * v[k]
			}
		}
		d.tmp[i] = sum
	}
	copy(v, d.tmp)
}

func (d *denseFactor) btranCost(y []float64) {
	s := d.s
	m := s.m
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m; i++ {
		cb := s.cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := d.binv[i*m : (i+1)*m]
		for j, v := range row {
			y[j] += cb * v
		}
	}
}

func (d *denseFactor) btranUnit(r int, z []float64) []int32 {
	m := d.s.m
	copy(z, d.binv[r*m:(r+1)*m])
	return nil
}

// update applies the product-form transformation: row `leave` of B⁻¹ is
// divided by the pivot, then subtracted from every other row in proportion
// to w.
func (d *denseFactor) update(leave int, w []float64) bool {
	m := d.s.m
	wl := w[leave]
	if wl == 0 {
		return false
	}
	pivRow := d.binv[leave*m : (leave+1)*m]
	inv := 1 / wl
	for j := range pivRow {
		pivRow[j] *= inv
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		row := d.binv[i*m : (i+1)*m]
		for j, v := range pivRow {
			if v != 0 {
				row[j] -= f * v
			}
		}
	}
	return true
}

func (d *denseFactor) wantRefactor() bool { return false }

// invertDense inverts the m×m row-major matrix a in place via Gauss-Jordan
// with partial pivoting, returning (inverse, true) on success. The input is
// clobbered.
func invertDense(a []float64, m int) ([]float64, bool) {
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for col := 0; col < m; col++ {
		piv, pmax := -1, 0.0
		for r := col; r < m; r++ {
			if v := math.Abs(a[r*m+col]); v > pmax {
				pmax = v
				piv = r
			}
		}
		if piv < 0 || pmax < 1e-12 {
			return nil, false
		}
		if piv != col {
			swapRows(a, m, piv, col)
			swapRows(inv, m, piv, col)
		}
		d := 1 / a[col*m+col]
		arow := a[col*m : (col+1)*m]
		irow := inv[col*m : (col+1)*m]
		for j := range arow {
			arow[j] *= d
		}
		for j := range irow {
			irow[j] *= d
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := a[r*m+col]
			if f == 0 {
				continue
			}
			ar := a[r*m : (r+1)*m]
			ir := inv[r*m : (r+1)*m]
			for j := range arow {
				if arow[j] != 0 {
					ar[j] -= f * arow[j]
				}
			}
			for j := range irow {
				if irow[j] != 0 {
					ir[j] -= f * irow[j]
				}
			}
		}
	}
	return inv, true
}

func swapRows(a []float64, m, r1, r2 int) {
	row1 := a[r1*m : (r1+1)*m]
	row2 := a[r2*m : (r2+1)*m]
	for j := range row1 {
		row1[j], row2[j] = row2[j], row1[j]
	}
}
