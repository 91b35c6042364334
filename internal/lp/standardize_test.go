package lp

import (
	"bytes"
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

// checkStandardize holds standardize to the map-based oracle on p: built
// fresh, built over leftovers larger and smaller than it needs, and rebuilt
// over its own previous result.
func checkStandardize(p *Problem) error {
	want := p.standardizeRef()
	if err := diffStandardized(p.standardize(nil), want); err != nil {
		return fmt.Errorf("fresh: %w", err)
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
// 1 the row count (b%64), byte 2 flags (1: maximize, 2: build as a Model and
// splice it afterwards). Each row is a length byte (b%16 entries), a sense
// byte and (variable, value) byte pairs; value byte 0 is an explicit zero, 1
// is -0, the rest map to (b-128)/8. Splice bytes follow. Missing bytes read
// as zero, so a truncated input ends in empty rows.

func fuzzValue(b byte) float64 {
	switch b {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return float64(int(b)-128) / 8
}

func fuzzProblem(data []byte) *Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n, m, flags := 1+int(next())%80, int(next())%64, next()
	obj := Minimize
	if flags&1 != 0 {
		obj = Maximize
	}
	model := NewModel(obj)
	for j := 0; j < n; j++ {
		model.AddVariable(float64(j%5)-2, -float64(j%3), float64(1+j%4), "")
	}
	for i := 0; i < m; i++ {
		k := int(next()) % 16
		sense := Sense(next() % 3)
		idx, val := make([]int, k), make([]float64, k)
		for t := range idx {
			idx[t] = int(next()) % n
			val[t] = fuzzValue(next())
		}
		model.AddConstraint(idx, val, sense, float64(i%7)-3, "")
	}
	if flags&2 != 0 {
		// Splices, the way the online engines apply them: blocks of variables
		// and rows removed and inserted mid-model, bulk coefficient rewrites.
		for s := 0; s < 4; s++ {
			nv, nr := model.NumVariables(), model.NumConstraints()
			at, cnt := int(next()), 1+int(next())%3
			switch next() % 5 {
			case 0:
				model.InsertVariables(at%(nv+1), cnt, 1, 0, 2)
			case 1:
				if nv > cnt {
					model.RemoveVariables(at%(nv-cnt), cnt)
				}
			case 2:
				model.InsertConstraint(at%(nr+1), []int{at % nv, (at + 1) % nv, at % nv}, []float64{1, fuzzValue(next()), 2}, GE, 1, "")
			case 3:
				if nr > cnt {
					model.RemoveConstraints(at%(nr-cnt), cnt)
				}
			case 4:
				if nr > 0 {
					idx, val := make([]int, 40), make([]float64, 40)
					for t := range idx {
						idx[t] = (at + 3*t) % nv
						val[t] = fuzzValue(next())
					}
					model.SetCoeffs(at%nr, idx, val)
				}
			}
		}
	}
	return model.p
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
// buffers and over dirty leftovers of another shape — and never panics. The
// seed corpus runs under plain `go test`, -short included.
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
			seed[2] |= 2 // a Model after Insert/Remove splices and bulk rewrites
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		if err := checkStandardize(p); err != nil {
			t.Fatalf("%d×%d: %v", len(p.rows), len(p.obj), err)
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

// TestStandardizeClonesKeepTheirMatrix: a model whose matrix is shared with
// clones must cut new matrix arrays when it re-standardizes, because the
// clones still read the old ones.
func TestStandardizeClonesKeepTheirMatrix(t *testing.T) {
	m := NewModelFromProblem(clusterShapedLP(6, 3, 1))
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	clone := m.Clone()
	before := clone.std.clone()
	m.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 1, "")
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := diffStandardized(clone.std, before); err != nil {
		t.Fatalf("the original's rebuild wrote through the clone's matrix: %v", err)
	}
	if err := diffStandardized(m.std, m.p.standardizeRef()); err != nil {
		t.Fatalf("rebuilt form: %v", err)
	}
}

// wideRowModel is one constraint over `vars` variables that stores only
// variable 0, so every other variable set in it is a fill-in.
func wideRowModel(vars int) *Model {
	m := NewModel(Minimize)
	m.AddVariables(vars, 1, 0, 2)
	m.AddConstraint([]int{0}, []float64{1}, GE, 1, "wide")
	return m
}

// TestSetCoeffsFillInOrderDeterministic: two identical edit sequences must
// leave identical models. SetCoeffs used to append fill-ins in Go map
// iteration order, so rows[i].idx — and with it CopyProblem, WriteMPS and
// the last bits of Value/CheckFeasible row sums — differed from run to run.
func TestSetCoeffsFillInOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := rng.Perm(120)[:100]
	val := make([]float64, len(idx))
	for t := range val {
		val[t] = 1 + rng.Float64()
	}
	build := func() *Problem {
		m := wideRowModel(120)
		m.SetCoeffs(0, idx, val)
		return m.CopyProblem()
	}
	first := build()
	var firstMPS bytes.Buffer
	if err := first.WriteMPS(&firstMPS, "wide", nil); err != nil {
		t.Fatal(err)
	}
	for rebuild := 1; rebuild <= 5; rebuild++ {
		again := build()
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("rebuild %d: row order %v, first build %v", rebuild, again.rows[0].idx[:8], first.rows[0].idx[:8])
		}
		var mps bytes.Buffer
		if err := again.WriteMPS(&mps, "wide", nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mps.Bytes(), firstMPS.Bytes()) {
			t.Fatalf("rebuild %d: MPS bytes differ", rebuild)
		}
	}
	// Fill-ins land in idx order, after what the row already stored.
	want := []int{0}
	for _, v := range idx {
		if v != 0 {
			want = append(want, v)
		}
	}
	if got := first.rows[0].idx; !reflect.DeepEqual(got, want) {
		t.Fatalf("row order %v, want stored entries then idx order %v", got, want)
	}
}

// mergedRow is row's coefficient per variable with duplicate entries summed.
func mergedRow(p *Problem, row int) []float64 {
	out := make([]float64, len(p.obj))
	for t, v := range p.rows[row].idx {
		out[v] += p.rows[row].val[t]
	}
	return out
}

// TestSetCoeffsMatchesRepeatedSetCoeff: the one-pass bulk setter and the
// per-entry loop it stands for leave the same coefficients, the same
// standardized form and the same delta classification — on tables either
// side of the 32-entry fast-path boundary, with duplicate (variable, value)
// pairs (the last one wins), fill-ins, zero-outs and no-ops.
func TestSetCoeffsMatchesRepeatedSetCoeff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const vars = 90
	build := func() *Model {
		m := NewModel(Maximize)
		m.AddVariables(vars, 1, 0, 3)
		idx, val := []int{}, []float64{}
		for v := 0; v < vars; v += 2 { // odd variables are fill-ins later
			idx, val = append(idx, v), append(val, float64(1+v%5))
		}
		idx, val = append(idx, 4, 10, 4), append(val, 0.5, -1, 0.25) // stored duplicates
		m.AddConstraint(idx, val, LE, 40, "wide")
		m.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 2, "other")
		return m
	}
	for _, size := range []int{5, 31, 32, 33, 34, 60, 150} {
		for trial := 0; trial < 8; trial++ {
			idx, val := make([]int, size), make([]float64, size)
			for t := range idx {
				idx[t] = rng.Intn(vars)
				if t > 0 && rng.Intn(6) == 0 {
					idx[t] = idx[rng.Intn(t)] // duplicate pair: last wins
				}
				val[t] = float64(rng.Intn(4)) // zero-outs, no-ops against stored values
			}
			bulk, loop := build(), build()
			for _, m := range []*Model{bulk, loop} {
				if _, err := m.Solve(); err != nil {
					t.Fatal(err)
				}
			}
			bulk.SetCoeffs(0, idx, val)
			for t, v := range idx {
				loop.SetCoeff(0, v, val[t])
			}
			tag := fmt.Sprintf("size %d trial %d", size, trial)
			if got, want := mergedRow(bulk.p, 0), mergedRow(loop.p, 0); !sameBits(got, want) {
				t.Fatalf("%s: merged row %v, per-entry %v", tag, got, want)
			}
			if bulk.sinceCoeff != loop.sinceCoeff || bulk.touched != loop.touched {
				t.Fatalf("%s: sinceCoeff/touched = %v/%d, per-entry %v/%d", tag, bulk.sinceCoeff, bulk.touched, loop.sinceCoeff, loop.touched)
			}
			if !bulk.stdDirty {
				// Value-only edits were patched into the live form in place.
				if err := diffStandardized(bulk.std, bulk.p.standardizeRef()); err != nil {
					t.Fatalf("%s: patched form: %v", tag, err)
				}
			}
			for _, v := range bulk.scSlot {
				if v != 0 {
					t.Fatalf("%s: scSlot left dirty", tag)
				}
			}
			bs, err := bulk.Solve()
			if err != nil {
				t.Fatal(err)
			}
			ls, err := loop.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if bs.Status != ls.Status || math.Abs(bs.Objective-ls.Objective) > 1e-9 {
				t.Fatalf("%s: bulk %v %.12g, per-entry %v %.12g", tag, bs.Status, bs.Objective, ls.Status, ls.Objective)
			}
		}
	}
	// Without duplicate pairs the two leave the very same rows, entry for
	// entry, across the boundary.
	for _, size := range []int{32, 33, 80} {
		idx, val := rng.Perm(vars)[:size], make([]float64, size)
		for t := range val {
			val[t] = float64(1 + rng.Intn(3))
		}
		bulk, loop := build(), build()
		bulk.SetCoeffs(0, idx, val)
		for t, v := range idx {
			loop.SetCoeff(0, v, val[t])
		}
		if !reflect.DeepEqual(bulk.p, loop.p) {
			t.Fatalf("size %d: bulk row %v %v, per-entry %v %v", size,
				bulk.p.rows[0].idx, bulk.p.rows[0].val, loop.p.rows[0].idx, loop.p.rows[0].val)
		}
	}
}
