package lp

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

const sampleMPS = `* A classic tiny model:
* max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6
NAME          CHOCOLATE
OBJSENSE
    MAX
ROWS
 N  COST
 L  LIM1
 L  LIM2
COLUMNS
    X  COST  5  LIM1  6
    X  LIM2  1
    Y  COST  4  LIM1  4
    Y  LIM2  2
RHS
    RHS  LIM1  24  LIM2  6
BOUNDS
ENDATA
`

func TestReadMPSSolves(t *testing.T) {
	p, ints, err := ReadMPS(strings.NewReader(sampleMPS))
	if err != nil {
		t.Fatal(err)
	}
	if len(ints) != 0 {
		t.Fatalf("unexpected integer vars: %v", ints)
	}
	if p.NumVariables() != 2 || p.NumConstraints() != 2 {
		t.Fatalf("parsed %d vars, %d rows", p.NumVariables(), p.NumConstraints())
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 21)
}

func TestReadMPSBounds(t *testing.T) {
	src := `NAME T
ROWS
 N  OBJ
 G  R1
COLUMNS
    A  OBJ  1  R1  1
    B  OBJ  1  R1  1
    C  OBJ  1  R1  1
    D  OBJ  1  R1  1
RHS
    RHS  R1  -100
BOUNDS
 UP BND  A  4
 LO BND  B  -2
 FX BND  C  7
 FR BND  D
ENDATA
`
	p, _, err := ReadMPS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	check := func(v int, lb, ub float64) {
		gl, gu := p.Bounds(v)
		if gl != lb || gu != ub {
			t.Fatalf("var %d bounds [%g, %g], want [%g, %g]", v, gl, gu, lb, ub)
		}
	}
	check(0, 0, 4)
	check(1, -2, math.Inf(1))
	check(2, 7, 7)
	check(3, math.Inf(-1), math.Inf(1))
}

func TestReadMPSIntegerMarkers(t *testing.T) {
	src := `NAME T
ROWS
 N  OBJ
 L  R1
COLUMNS
    MARKER1  'MARKER'  'INTORG'
    A  OBJ  3  R1  2
    B  OBJ  2  R1  2
    MARKER2  'MARKER'  'INTEND'
    C  OBJ  1  R1  1
RHS
    RHS  R1  3
BOUNDS
 UP BND  A  1
 UP BND  B  1
ENDATA
`
	_, ints, err := ReadMPS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(ints) != 2 || ints[0] != 0 || ints[1] != 1 {
		t.Fatalf("integer vars = %v, want [0 1]", ints)
	}
}

func TestReadMPSRanges(t *testing.T) {
	// L row with RANGES r: rhs-r <= ax <= rhs.
	src := `NAME T
ROWS
 N  OBJ
 L  R1
COLUMNS
    X  OBJ  -1  R1  1
RHS
    RHS  R1  10
RANGES
    RNG  R1  4
ENDATA
`
	p, _, err := ReadMPS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumConstraints() != 2 {
		t.Fatalf("ranged row should expand to 2 constraints, got %d", p.NumConstraints())
	}
	// min -x s.t. 6 <= x <= 10 → x=10.
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, -10)
}

func TestMPSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		orig := randomFeasibleLP(rng, 5, 9)
		s1, err := orig.Solve()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.WriteMPS(&buf, "RT", nil); err != nil {
			t.Fatal(err)
		}
		back, ints, err := ReadMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		if len(ints) != 0 {
			t.Fatalf("trial %d: spurious integer vars", trial)
		}
		if back.NumVariables() != orig.NumVariables() {
			t.Fatalf("trial %d: %d vars, want %d", trial, back.NumVariables(), orig.NumVariables())
		}
		s2, err := back.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if s1.Status != s2.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, s1.Status, s2.Status)
		}
		if s1.Status == Optimal && !approxEq(s1.Objective, s2.Objective, 1e-9) {
			t.Fatalf("trial %d: objective %g vs %g", trial, s1.Objective, s2.Objective)
		}
	}
}

func TestMPSRoundTripIntegers(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(3, 0, 1, "x")
	y := p.AddVariable(2, 0, 5, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4, "cap")
	var buf bytes.Buffer
	if err := p.WriteMPS(&buf, "MI", []int{x}); err != nil {
		t.Fatal(err)
	}
	_, ints, err := ReadMPS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ints) != 1 || ints[0] != 0 {
		t.Fatalf("integer vars = %v, want [0]", ints)
	}
}

func TestReadMPSErrors(t *testing.T) {
	cases := map[string]string{
		"no objective":   "NAME T\nROWS\n L  R1\nENDATA\n",
		"unknown row":    "NAME T\nROWS\n N  OBJ\nCOLUMNS\n    X  NOPE  1\nENDATA\n",
		"bad row type":   "NAME T\nROWS\n Z  R1\nENDATA\n",
		"bad bound type": "NAME T\nROWS\n N  OBJ\nCOLUMNS\n    X  OBJ  1\nBOUNDS\n XX BND  X  1\nENDATA\n",
	}
	for name, src := range cases {
		if _, _, err := ReadMPS(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestScalingBadlyScaledModel(t *testing.T) {
	// Coefficients spanning 9 orders of magnitude, solved as every caller
	// solves: unscaled. max 1e6·x + y s.t. 1e6·x + 1e-3·y <= 1e6+1, x <= 1,
	// y <= 1e3.
	p := NewProblem(Maximize)
	x := p.AddVariable(1e6, 0, 1, "x")
	y := p.AddVariable(1, 0, 1e3, "y")
	p.AddConstraint([]int{x, y}, []float64{1e6, 1e-3}, LE, 1e6+1, "big")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Optimal)
	if !approxEq(sol.Objective, 1e6+1e3, 1e-6) {
		t.Fatalf("objective = %g, want %g", sol.Objective, 1e6+1e3)
	}
	if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
		t.Fatal(err)
	}
}
