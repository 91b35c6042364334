package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// hyperModel decodes fuzz bytes into a sparse model, factorized on its
// starting basis (slacks and artificials), and a byte source for the
// update sequence that continues from a generator seeded by the bytes once
// they run out. It returns nil when the bytes spell no model.
func hyperModel(data []byte) (*simplex, func() byte) {
	if len(data) < 2 {
		return nil, nil
	}
	m, n := 2+int(data[0])%24, 1+int(data[1])%32
	sum := int64(len(data))
	for _, b := range data {
		sum = 31*sum + int64(b)
	}
	rng := rand.New(rand.NewSource(sum))
	data = data[2:]
	next := func() byte {
		if len(data) == 0 {
			return byte(rng.Intn(256))
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := NewProblem(Maximize)
	rows := make([][]int, m)
	vals := make([][]float64, m)
	for j := 0; j < n; j++ {
		p.AddVariable(1, 0, 10, "")
		// One to four entries of small integers, a few scaled far down, so
		// cancellation to exact zero and spread magnitudes both occur.
		for e := 1 + int(next())%4; e > 0; e-- {
			b := next()
			v := float64(int(b>>3&15) - 7)
			if v == 0 {
				v = 1
			}
			if b&4 != 0 {
				v *= 1e-3
			}
			i := int(next()) % m
			rows[i] = append(rows[i], j)
			vals[i] = append(vals[i], v)
		}
	}
	for i := 0; i < m; i++ {
		p.AddConstraint(rows[i], vals[i], []Sense{LE, GE, EQ}[int(next())%3], float64(next()%16), "")
	}
	s := phase1Simplex(p, Options{})
	return s, next
}

// sameVec reports the first entry where two kernel results differ, bit for
// bit with ±0 equal, or -1.
func sameVec(a, b []float64) int {
	for i := range a {
		if a[i] != b[i] && math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// nonzeros lists the indices of v's nonzero entries, ascending.
func nonzeros(v []float64) []int32 {
	var nz []int32
	for i, x := range v {
		if x != 0 {
			nz = append(nz, int32(i))
		}
	}
	return nz
}

// checkHyperKernels holds the sparse ftranCol and btranUnit to the dense
// ones on every column and every basis position of f's current factor:
// equal entries, the listed positions exactly the nonzero ones, and the
// same saved spike.
func checkHyperKernels(s *simplex, f *luFactor) error {
	m := f.m
	wd, ws := make([]float64, m), make([]float64, m)
	for q := 0; q < s.ncols+m; q++ {
		f.ftranColDense(q, wd)
		spike := slices.Clone(f.spike)
		nz := slices.Clone(f.ftranSparse(q, ws))
		if i := sameVec(wd, ws); i >= 0 {
			return fmt.Errorf("ftranCol(%d): w[%d] dense %v, sparse %v", q, i, wd[i], ws[i])
		}
		if want := nonzeros(wd); !slices.Equal(nz, want) {
			return fmt.Errorf("ftranCol(%d): listed %v, nonzeros %v", q, nz, want)
		}
		if !slices.EqualFunc(spike, f.spike, func(a, b luEntry) bool { return a.idx == b.idx && a.val == b.val }) {
			return fmt.Errorf("ftranCol(%d): spike dense %v, sparse %v", q, spike, f.spike)
		}
		for h, g := range f.gs {
			if g != 0 {
				return fmt.Errorf("ftranCol(%d): accumulator left %v at handle %d", q, g, h)
			}
		}
	}
	zd, zs := make([]float64, m), make([]float64, m)
	for r := 0; r < m; r++ {
		clear(zd)
		zd[r] = 1
		f.solveLUT(zd)
		nz := slices.Clone(f.btranSparse(r, zs))
		if i := sameVec(zd, zs); i >= 0 {
			return fmt.Errorf("btranUnit(%d): z[%d] dense %v, sparse %v", r, i, zd[i], zs[i])
		}
		if want := nonzeros(zd); !slices.Equal(nz, want) {
			return fmt.Errorf("btranUnit(%d): listed %v, nonzeros %v", r, nz, want)
		}
	}
	return nil
}

// hyperRun brings structural columns into the starting basis by the
// Forrest–Tomlin updates the bytes choose, refactoring now and then so L
// and the row etas both carry entries, and checks the kernels after every
// step. Each update's row elimination runs on a heap of the touched rows
// (heap) or scans every later step. It returns every dense btranUnit result
// along the way.
func hyperRun(data []byte, heap bool) ([]float64, error) {
	s, next := hyperModel(data)
	if s == nil {
		return nil, nil
	}
	f := &s.lu
	if err := checkHyperKernels(s, f); err != nil {
		return nil, fmt.Errorf("starting factor: %w", err)
	}
	var trace []float64
	w := make([]float64, s.m)
	for step := 0; step < 2*s.m; step++ {
		q := int(next()) % s.ncols
		if slices.Contains(s.basis, q) {
			continue
		}
		f.ftranSparse(q, w)
		leave, best := -1, 0.1
		for i, wi := range w {
			if a := math.Abs(wi); a > best {
				best, leave = a, i
			}
		}
		if leave < 0 {
			continue
		}
		f.btranDen = 1
		if heap {
			f.btranDen = 0
		}
		s.basis[leave] = q
		if (!f.update(leave, w) || next()%6 == 0) && !f.refactor() {
			return trace, nil // numerically singular after all: the chain ends
		}
		if err := checkHyperKernels(s, f); err != nil {
			return nil, fmt.Errorf("step %d (q=%d leave=%d, %d row etas): %w", step, q, leave, len(f.rowEtas), err)
		}
		z := make([]float64, s.m)
		for r := 0; r < s.m; r++ {
			clear(z)
			z[r] = 1
			f.solveLUT(z)
			trace = append(trace, z...)
		}
	}
	return trace, nil
}

// FuzzHyperKernels: on a random sparse basis and a random chain of
// Forrest–Tomlin updates, the sparse ftranCol and btranUnit reproduce the
// dense kernels bit for bit after every update (see checkHyperKernels), and
// the update's row elimination leaves the same factor whether it visits
// only the touched rows or scans every step. The seed corpus runs under
// plain `go test`, -short included.
func FuzzHyperKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 40; i++ {
		seed := make([]byte, 2+rng.Intn(400))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		viaHeap, err := hyperRun(data, true)
		if err != nil {
			t.Fatalf("heap elimination: %v", err)
		}
		viaScan, err := hyperRun(data, false)
		if err != nil {
			t.Fatalf("scanned elimination: %v", err)
		}
		if i := sameVec(viaHeap, viaScan); len(viaHeap) != len(viaScan) || i >= 0 {
			t.Fatalf("heap and scanned eliminations disagree (entry %d of %d/%d)", i, len(viaHeap), len(viaScan))
		}
	})
}
