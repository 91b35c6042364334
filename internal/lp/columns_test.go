package lp

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestColumnsRejectsMalformed: each fault in a Columns is refused by
// SolveWithOptions with an error that names it, never a panic, and the
// well-formed program the faults are cut from solves to what the same LP
// built row by row solves to.
func TestColumnsRejectsMalformed(t *testing.T) {
	// max x0 + x1  s.t.  x0 + x1 ≤ 4,  x0 − x1 ≥ −1,  x1 = 2,  0 ≤ x ≤ 3.
	valid := func() *Columns {
		return &Columns{
			Objective: Maximize,
			Cost:      []float64{1, 1},
			Lower:     []float64{0, 0},
			Upper:     []float64{3, 3},
			ColPtr:    []int32{0, 2, 5},
			RowInd:    []int32{0, 1, 0, 1, 2},
			Values:    []float64{1, 1, 1, -1, 1},
			Sense:     []Sense{LE, GE, EQ},
			RHS:       []float64{4, -1, 2},
		}
	}
	for _, c := range []struct {
		name  string
		fault func(c *Columns)
		want  string
	}{
		{"no columns", func(c *Columns) { c.Cost, c.Lower, c.Upper, c.ColPtr = nil, nil, nil, []int32{0} }, "no variables"},
		{"bounds shorter than costs", func(c *Columns) { c.Upper = c.Upper[:1] }, "2 costs, 2 lower and 1 upper bounds"},
		{"column pointers short", func(c *Columns) { c.ColPtr = c.ColPtr[:2] }, "2 column pointers for 2 columns"},
		{"values shorter than row indices", func(c *Columns) { c.Values = c.Values[:4] }, "5 row indices, 4 values"},
		{"senses shorter than rhs", func(c *Columns) { c.Sense = c.Sense[:2] }, "2 senses, 3 right-hand sides"},
		{"pointers end short of the entries", func(c *Columns) { c.ColPtr[2] = 4 }, "column pointers run 0..4, want 0..5"},
		{"pointers decrease", func(c *Columns) { c.ColPtr[1] = 6 }, "column 0: column pointers 0..6 leave 0..5"},
		{"row out of range", func(c *Columns) { c.RowInd[4] = 3 }, "column 1 references unknown row 3"},
		{"negative row", func(c *Columns) { c.RowInd[0] = -1 }, "column 0 references unknown row -1"},
		{"rows descend", func(c *Columns) { c.RowInd[0], c.RowInd[1] = 1, 0 }, "column 0: row 0 after row 1, rows must ascend strictly"},
		{"row repeated", func(c *Columns) { c.RowInd[3] = 0 }, "column 1: row 0 after row 0"},
		{"NaN coefficient", func(c *Columns) { c.Values[2] = math.NaN() }, "column 1 has non-finite coefficient NaN"},
		{"+Inf coefficient", func(c *Columns) { c.Values[0] = math.Inf(1) }, "column 0 has non-finite coefficient +Inf"},
		{"-Inf coefficient", func(c *Columns) { c.Values[3] = math.Inf(-1) }, "column 1 has non-finite coefficient -Inf"},
		{"NaN rhs", func(c *Columns) { c.RHS[1] = math.NaN() }, "row 1 has NaN rhs"},
		{"invalid sense", func(c *Columns) { c.Sense[2] = 7 }, "row 2 has invalid sense"},
		{"lb > ub", func(c *Columns) { c.Lower[1] = 4 }, "column 1 has lb 4 > ub 3"},
		{"NaN bound", func(c *Columns) { c.Upper[0] = math.NaN() }, "column 0 has invalid data"},
		{"infinite cost", func(c *Columns) { c.Cost[1] = math.Inf(-1) }, "column 1 has invalid data c=-Inf"},
		{"NaN cost", func(c *Columns) { c.Cost[0] = math.NaN() }, "column 0 has invalid data c=NaN"},
	} {
		cols := valid()
		c.fault(cols)
		sol, err := cols.SolveWithOptions(Options{})
		if err == nil {
			t.Errorf("%s: accepted (status %v)", c.name, sol.Status)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the fault %q", c.name, err, c.want)
		}
	}

	p := NewProblem(Maximize)
	p.AddVariable(1, 0, 3, "")
	p.AddVariable(1, 0, 3, "")
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4, "")
	p.AddConstraint([]int{0, 1}, []float64{1, -1}, GE, -1, "")
	p.AddConstraint([]int{1}, []float64{1}, EQ, 2, "")
	want, err := p.SolveWithOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := valid().SolveWithOptions(Options{})
	if err != nil {
		t.Fatalf("well-formed columns refused: %v", err)
	}
	if got.Status != want.Status || got.Iterations != want.Iterations || !sameBits(got.X, want.X) ||
		!sameBits(got.Dual, want.Dual) || !slices.Equal(got.Basis.VarStatus, want.Basis.VarStatus) {
		t.Fatalf("columns solve %v x=%v in %d pivots, row build %v x=%v in %d", got.Status, got.X, got.Iterations,
			want.Status, want.X, want.Iterations)
	}
}
