package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffStandardized reports the first field in which two equality forms of
// the same problem differ, bit for bit.
func diffStandardized(got, want *standardized) error {
	switch {
	case got.m != want.m || got.n != want.n || got.ncols != want.ncols:
		return fmt.Errorf("shape %d×%d (%d cols), want %d×%d (%d)", got.m, got.n, got.ncols, want.m, want.n, want.ncols)
	case got.maximize != want.maximize || got.objSign != want.objSign:
		return fmt.Errorf("maximize/objSign = %v/%v, want %v/%v", got.maximize, got.objSign, want.maximize, want.objSign)
	case !slices.Equal(got.colPtr, want.colPtr):
		return fmt.Errorf("colPtr = %v, want %v", got.colPtr, want.colPtr)
	case !slices.Equal(got.rowInd, want.rowInd):
		return fmt.Errorf("rowInd = %v, want %v", got.rowInd, want.rowInd)
	case !sameBits(got.values, want.values):
		return fmt.Errorf("values = %v, want %v", got.values, want.values)
	case !sameBits(got.c, want.c):
		return fmt.Errorf("c = %v, want %v", got.c, want.c)
	case !sameBits(got.lb, want.lb):
		return fmt.Errorf("lb = %v, want %v", got.lb, want.lb)
	case !sameBits(got.ub, want.ub):
		return fmt.Errorf("ub = %v, want %v", got.ub, want.ub)
	case !sameBits(got.b, want.b):
		return fmt.Errorf("b = %v, want %v", got.b, want.b)
	}
	return nil
}

// leftovers returns a destination as a previous build of some other shape
// would leave it: every buffer scale× the size p needs plus extra, full of
// values no build writes.
func leftovers(p *Problem, scale float64, extra int) *standardized {
	size := func(n int) int { return int(float64(n)*scale) + extra }
	n, m := len(p.obj), len(p.rows)
	s := &standardized{
		m: 9999, n: 9999, ncols: 9999, maximize: !(p.objective == Maximize), objSign: 7,
		colPtr: make([]int32, size(n+m+1)),
		rowInd: make([]int32, size(p.nnz+m)),
		values: make([]float64, size(p.nnz+m)),
		c:      make([]float64, size(n+m)),
		lb:     make([]float64, size(n+m)),
		ub:     make([]float64, size(n+m)),
		b:      make([]float64, size(m)),
		stamp:  make([]int32, size(n)),
	}
	fill(math.NaN(), s.values, s.c, s.lb, s.ub, s.b)
	fill(-1, s.colPtr, s.rowInd)
	for i := range s.stamp {
		s.stamp[i] = int32(i % (2*m + 3)) // collides with both passes' stamps
	}
	return s
}

// columnsOf transposes p into its column form. Duplicate indices within a
// row merge into one entry, summed in row order from the first.
func columnsOf(p *Problem) *Columns {
	type entry struct {
		row int32
		val float64
	}
	cols := make([][]entry, len(p.obj))
	for i, r := range p.rows {
		for t, v := range r.idx {
			if k := len(cols[v]) - 1; k >= 0 && cols[v][k].row == int32(i) {
				cols[v][k].val += r.val[t]
			} else {
				cols[v] = append(cols[v], entry{int32(i), r.val[t]})
			}
		}
	}
	c := &Columns{Objective: p.objective, Cost: p.obj, Lower: p.lb, Upper: p.ub, ColPtr: []int32{0}}
	for _, col := range cols {
		for _, e := range col {
			c.RowInd, c.Values = append(c.RowInd, e.row), append(c.Values, e.val)
		}
		c.ColPtr = append(c.ColPtr, int32(len(c.RowInd)))
	}
	for _, r := range p.rows {
		c.Sense, c.RHS = append(c.Sense, r.sense), append(c.RHS, r.rhs)
	}
	return c
}

// checkStandardize holds standardize to the map-based oracle on p: built
// fresh, built over leftovers larger and smaller than it needs, and rebuilt
// over its own previous result. p's column form must give the same
// equality form.
func checkStandardize(p *Problem) error {
	want := p.standardizeRef()
	if err := diffStandardized(p.standardize(nil), want); err != nil {
		return fmt.Errorf("fresh: %w", err)
	}
	cols := columnsOf(p)
	if err := cols.check(); err != nil {
		return fmt.Errorf("column form refused: %w", err)
	}
	if err := diffStandardized(cols.standardize(), want); err != nil {
		return fmt.Errorf("column form: %w", err)
	}
	for _, c := range []struct {
		name  string
		scale float64
		extra int
	}{{"larger leftovers", 2, 17}, {"smaller leftovers", 0.5, 0}, {"empty leftovers", 0, 0}} {
		into := leftovers(p, c.scale, c.extra)
		got := p.standardize(into)
		if got != into {
			return fmt.Errorf("%s: standardize returned a different struct", c.name)
		}
		if err := diffStandardized(got, want); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if err := diffStandardized(p.standardize(got), want); err != nil {
			return fmt.Errorf("%s, rebuilt in place: %w", c.name, err)
		}
	}
	return nil
}

// Fuzz encoding of a problem: byte 0 is the variable count (1 + b%80), byte
// 1 the row count (b%64), byte 2 flags (1: maximize, 2: standardize, Reset
// and rebuild the model afterwards). Each row is a length byte (b%16
// entries), a sense byte and (variable, value) byte pairs; value byte 0 is
// an explicit zero, 1 is -0, the rest map to (b-128)/8. A rebuild reads a
// second variable and row count and its rows the same way, then a bulk
// rewrite (a row byte, a start byte and 40 value bytes) that a second
// rebuild of the same shape applies. Missing bytes read as zero, so a
// truncated input ends in empty rows.

func fuzzValue(b byte) float64 {
	switch b {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return float64(int(b)-128) / 8
}

// fuzzBytes reads data a byte at a time, zero once it runs out.
type fuzzBytes []byte

func (d *fuzzBytes) next() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

// fuzzBuild builds n variables and rows rows read from d into m.
func fuzzBuild(m *Model, n, rows int, d *fuzzBytes) {
	for j := 0; j < n; j++ {
		m.AddVariable(float64(j%5)-2, -float64(j%3), float64(1+j%4), "")
	}
	for i := 0; i < rows; i++ {
		k := int(d.next()) % 16
		sense := Sense(d.next() % 3)
		idx, val := make([]int, k), make([]float64, k)
		for t := range idx {
			idx[t] = int(d.next()) % n
			val[t] = fuzzValue(d.next())
		}
		m.AddConstraint(idx, val, sense, float64(i%7)-3, "")
	}
}

// fuzzRewrite reads one bulk coefficient rewrite from d, fill-ins
// included, the way a sub-problem's shared rows change from round to round,
// and applies it to e.
func fuzzRewrite(e *Edit, d *fuzzBytes) {
	row, at := int(d.next()), int(d.next())
	idx, val := make([]int, 40), make([]float64, 40)
	for t := range idx {
		idx[t] = (at + 3*t) % len(e.p.obj)
		val[t] = fuzzValue(d.next())
	}
	if len(e.p.rows) > 0 {
		for t, v := range idx {
			e.Coeff(row%len(e.p.rows), v, val[t])
		}
	}
}

// fuzzModel decodes data into a model. With flag 2 the model is
// standardized, Reset and rebuilt at the second shape into the rows and the
// form the first build left — the online engine's rebuild on a membership
// change — then rebuilt once more in that shape with the rewrite's values,
// as on a round that keeps the layout. fresh is the same second build with
// the rewrite applied, in a new problem, which the rebuilt model must
// equal.
func fuzzModel(data []byte) (m *Model, fresh *Problem) {
	d := fuzzBytes(data)
	n, rows, flags := 1+int(d.next())%80, int(d.next())%64, d.next()
	obj := Minimize
	if flags&1 != 0 {
		obj = Maximize
	}
	m = NewModel(obj)
	fuzzBuild(m, n, rows, &d)
	if flags&2 == 0 {
		return m, nil
	}
	m.std = m.p.standardize(m.std)
	m.Reset()
	n, rows = 1+int(d.next())%80, int(d.next())%64
	twin, rest := NewModel(obj), d
	fuzzBuild(m, n, rows, &d)
	m.RebuildEdited(func(e *Edit) { fuzzRewrite(e, &d) })
	fuzzBuild(twin, n, rows, &rest)
	fuzzRewrite(&Edit{twin.p}, &rest)
	return m, twin.p
}

// encodeShape spells p's sparsity pattern, senses and objective direction in
// the fuzz encoding (values are approximated: the seed is there for the
// shape).
func encodeShape(p *Problem) []byte {
	flags := byte(0)
	if p.objective == Maximize {
		flags = 1
	}
	out := []byte{byte(len(p.obj) - 1), byte(len(p.rows)), flags}
	for _, r := range p.rows {
		out = append(out, byte(len(r.idx)), byte(r.sense))
		for t, v := range r.idx {
			out = append(out, byte(v), byte(128+int(r.val[t]*8)))
		}
	}
	return out
}

// FuzzStandardize: on any small model the fuzzer can spell, the map-free
// standardize produces the oracle's equality form bit for bit — into fresh
// buffers and over dirty leftovers of another shape, a Reset model's own
// included, and from the model's column form — and never panics, and a
// model Reset and rebuilt holds exactly what a fresh build of the same
// calls holds. The seed corpus runs under plain `go test`, -short included.
func FuzzStandardize(f *testing.F) {
	f.Add([]byte{3, 2, 0, 4, 0, 1, 130, 1, 140, 2, 150, 1, 120, 3, 2, 0, 136, 0, 120, 0, 128}) // duplicate indices in a row, one summing to zero
	f.Add([]byte{2, 3, 1, 3, 1, 0, 0, 1, 1, 2, 0, 2, 2, 1, 1, 1, 0})                           // explicit zeros and -0, duplicated
	f.Add([]byte{4, 4, 0, 2, 0, 0, 136, 1, 120, 0, 1, 2, 1, 2, 136, 3, 140, 1, 2, 4, 136})     // an empty row between LE, GE and EQ rows
	f.Add([]byte{9, 2, 1, 2, 0, 0, 136, 9, 136, 1, 2, 9, 120})                                 // variables 1..8 in no row
	f.Add([]byte{0, 0, 0})                                                                     // one variable, no rows
	f.Add([]byte{})
	f.Add(encodeShape(lbShapedLP(12, 3, 1)))     // the 57×72 coverage-defect sub-LP's shape
	f.Add(encodeShape(clusterShapedLP(5, 3, 1))) // a served cluster sub-LP, shared epigraph column included
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 40; i++ {
		seed := make([]byte, 3+rng.Intn(300))
		rng.Read(seed)
		if i%2 == 0 {
			seed[2] |= 2 // a Model Reset and rebuilt at another shape, then in it with a bulk rewrite
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, fresh := fuzzModel(data)
		p := m.p
		if err := checkStandardize(p); err != nil {
			t.Fatalf("%d×%d: %v", len(p.rows), len(p.obj), err)
		}
		if fresh == nil {
			return
		}
		if !reflect.DeepEqual(m.CopyProblem(), fresh.Clone()) {
			t.Fatalf("%d×%d: a Reset and rebuild differs from a fresh build", len(p.rows), len(p.obj))
		}
		if err := diffStandardized(p.standardize(m.std), p.standardizeRef()); err != nil {
			t.Fatalf("%d×%d, over the first build's form: %v", len(p.rows), len(p.obj), err)
		}
	})
}

// TestStandardizeMatchesReference holds standardize to the oracle on the
// allocation-shaped families at sizes the fuzz encoding cannot reach.
func TestStandardizeMatchesReference(t *testing.T) {
	for name, p := range map[string]*Problem{
		"cluster-300": clusterShapedLP(300, 3, 1),
		"lb-48x12":    lbShapedLP(48, 12, 1),
		"lb-12x3":     lbShapedLP(12, 3, 1),
		"te-250":      teShapedLP(250, 170, 1),
	} {
		if err := checkStandardize(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
