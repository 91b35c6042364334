package lp

import (
	"fmt"
	"math"

	"pop/internal/obs"
)

// Objective selects the optimization direction of a Problem.
type Objective int8

const (
	// Minimize the objective function.
	Minimize Objective = iota
	// Maximize the objective function.
	Maximize
)

// Sense is the relational operator of a linear constraint.
type Sense int8

const (
	// LE is a ≤ constraint.
	LE Sense = iota
	// GE is a ≥ constraint.
	GE
	// EQ is an equality constraint.
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Inf is the canonical infinite bound. Any value ≥ +Inf (resp. ≤ -Inf) is
// treated as unbounded.
var Inf = math.Inf(1)

// Problem is a linear program under construction. The zero value is not
// usable; create one with NewProblem.
//
// Variables are added with AddVariable and referenced by the returned dense
// index. Constraints reference variables by index. The builder is not safe
// for concurrent use.
type Problem struct {
	objective Objective
	obj       []float64
	lb, ub    []float64
	varNames  []string

	rows     []row
	rowNames []string

	nnz int
}

type row struct {
	idx   []int
	val   []float64
	sense Sense
	rhs   float64
}

// NewProblem returns an empty linear program with the given objective
// direction.
func NewProblem(objective Objective) *Problem {
	return &Problem{objective: objective}
}

// Clone returns a deep copy of the builder state.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		objective: p.objective,
		obj:       append([]float64(nil), p.obj...),
		lb:        append([]float64(nil), p.lb...),
		ub:        append([]float64(nil), p.ub...),
		varNames:  append([]string(nil), p.varNames...),
		rows:      make([]row, len(p.rows)),
		rowNames:  append([]string(nil), p.rowNames...),
		nnz:       p.nnz,
	}
	for i, r := range p.rows {
		q.rows[i] = row{
			idx:   append([]int(nil), r.idx...),
			val:   append([]float64(nil), r.val...),
			sense: r.sense,
			rhs:   r.rhs,
		}
	}
	return q
}

// reset empties the builder, keeping its arrays and, past the end of rows,
// each row's coefficient storage for AddConstraint to reuse.
func (p *Problem) reset() {
	p.obj, p.lb, p.ub, p.varNames = p.obj[:0], p.lb[:0], p.ub[:0], p.varNames[:0]
	p.rows, p.rowNames = p.rows[:0], p.rowNames[:0]
	p.nnz = 0
}

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// NumNonzeros reports the number of nonzero constraint coefficients.
func (p *Problem) NumNonzeros() int { return p.nnz }

// ObjectiveSense returns the optimization direction chosen at construction.
func (p *Problem) ObjectiveSense() Objective { return p.objective }

// Bounds returns the current bounds of variable v.
func (p *Problem) Bounds(v int) (lb, ub float64) { return p.lb[v], p.ub[v] }

// AddVariable adds a variable with objective coefficient c and bounds
// [lb, ub], returning its index. Use -Inf / +Inf for unbounded sides.
// name may be empty; it is only used in diagnostics.
func (p *Problem) AddVariable(c, lb, ub float64, name string) int {
	if lb > ub {
		panic(fmt.Sprintf("lp: variable %q has lb %g > ub %g", name, lb, ub))
	}
	if math.IsNaN(c) || math.IsNaN(lb) || math.IsNaN(ub) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("lp: variable %q has invalid data c=%g lb=%g ub=%g", name, c, lb, ub))
	}
	p.obj = append(p.obj, c)
	p.lb = append(p.lb, lb)
	p.ub = append(p.ub, ub)
	p.varNames = append(p.varNames, name)
	return len(p.obj) - 1
}

// AddVariables adds n identical variables and returns the index of the first.
func (p *Problem) AddVariables(n int, c, lb, ub float64) int {
	first := len(p.obj)
	for i := 0; i < n; i++ {
		p.AddVariable(c, lb, ub, "")
	}
	return first
}

// SetObjectiveCoeff overwrites the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoeff(v int, c float64) {
	p.obj[v] = c
}

// SetBounds overwrites the bounds of variable v.
func (p *Problem) SetBounds(v int, lb, ub float64) {
	if lb > ub {
		panic(fmt.Sprintf("lp: variable %d: lb %g > ub %g", v, lb, ub))
	}
	p.lb[v] = lb
	p.ub[v] = ub
}

// AddConstraint adds the constraint  Σ val[t]·x[idx[t]]  sense  rhs  and
// returns its row index. Duplicate indices within one constraint are summed.
// The idx and val slices are copied.
func (p *Problem) AddConstraint(idx []int, val []float64, sense Sense, rhs float64, name string) int {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("lp: constraint %q: len(idx)=%d len(val)=%d", name, len(idx), len(val)))
	}
	for _, v := range idx {
		if v < 0 || v >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, v))
		}
	}
	for _, v := range val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("lp: constraint %q has non-finite coefficient %g", name, v))
		}
	}
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: constraint %q has NaN rhs", name))
	}
	// A row that reset let go lends its storage to the row taking its place.
	var r row
	if len(p.rows) < cap(p.rows) {
		r = p.rows[:len(p.rows)+1][len(p.rows)]
	}
	r.idx = append(r.idx[:0], idx...)
	r.val = append(r.val[:0], val...)
	r.sense, r.rhs = sense, rhs
	p.rows = append(p.rows, r)
	p.rowNames = append(p.rowNames, name)
	p.nnz += len(idx)
	return len(p.rows) - 1
}

// Value evaluates the objective at x (length NumVariables) in the problem's
// own orientation.
func (p *Problem) Value(x []float64) float64 {
	v := 0.0
	for j, c := range p.obj {
		v += c * x[j]
	}
	return v
}

// CheckFeasible verifies that x satisfies all bounds and constraints within
// tol, returning a descriptive error for the first violation.
func (p *Problem) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(p.obj) {
		return fmt.Errorf("lp: len(x)=%d, want %d", len(x), len(p.obj))
	}
	for j := range x {
		if x[j] < p.lb[j]-tol || x[j] > p.ub[j]+tol {
			return fmt.Errorf("lp: variable %d value %g outside [%g, %g]", j, x[j], p.lb[j], p.ub[j])
		}
	}
	for i, r := range p.rows {
		sum := 0.0
		for t, v := range r.idx {
			sum += r.val[t] * x[v]
		}
		scale := 1 + math.Abs(r.rhs)
		switch r.sense {
		case LE:
			if sum > r.rhs+tol*scale {
				return fmt.Errorf("lp: row %d (%q): %g > %g", i, p.rowNames[i], sum, r.rhs)
			}
		case GE:
			if sum < r.rhs-tol*scale {
				return fmt.Errorf("lp: row %d (%q): %g < %g", i, p.rowNames[i], sum, r.rhs)
			}
		case EQ:
			if math.Abs(sum-r.rhs) > tol*scale {
				return fmt.Errorf("lp: row %d (%q): %g != %g", i, p.rowNames[i], sum, r.rhs)
			}
		}
	}
	return nil
}

// Status is the outcome of a solve.
type Status int8

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no feasible point.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
	// IterLimit means the iteration limit was reached before convergence.
	IterLimit
	// Numerical means the solver lost numerical precision beyond repair.
	Numerical
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Numerical:
		return "numerical-failure"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64   // objective value in the original orientation
	X         []float64 // one value per structural variable
	Dual      []float64 // one shadow price per constraint, original orientation
	// ReducedCost holds per-variable reduced costs (original orientation).
	ReducedCost []float64
	Iterations  int // total simplex pivots across both phases
	// Basis is the final basis snapshot (optimal solves only), suitable for
	// warm-starting a later solve via Options.WarmBasis.
	Basis *Basis
	// WarmStarted reports whether the solve actually started from
	// Options.WarmBasis; false means the snapshot was rejected (dimension
	// mismatch, singular, or unrepairably infeasible) and the solver ran a
	// cold phase 1 instead. An Infeasible solve is WarmStarted only when
	// the dual phase certified the verdict (Options.Dual).
	WarmStarted bool
	// DualPivots counts the pivots taken by the dual simplex phase
	// (Options.Dual); zero when the primal path ran. A successful dual
	// re-solve typically shows a handful of DualPivots and near-zero
	// remaining primal Iterations beyond them.
	DualPivots int
}

// Options tune the solver. The zero value selects sensible defaults, and is
// what every solve in this repository but cmd/popsolve's passes. There is one
// solver configuration — sparse LU with Forrest–Tomlin updates, Dantzig primal
// pricing with exact ties broken toward the sparsest column (on a path LP,
// the shortest path), dual devex — so a new field here must displace an old
// one (TestOptionsSurface).
type Options struct {
	// MaxIters bounds total pivots; 0 means 50·(m+n)+10000.
	MaxIters int
	// TolFeas is the primal feasibility tolerance (default 1e-7).
	TolFeas float64
	// TolOpt is the dual feasibility (reduced-cost) tolerance (default 1e-7).
	TolOpt float64
	// TolPivot is the smallest acceptable pivot magnitude (default 1e-8).
	TolPivot float64
	// WarmBasis optionally seeds the solve from a basis snapshot, typically
	// Solution.Basis of a previous solve of a similar problem. A snapshot
	// that no longer fits (wrong dimensions, singular, or unrepairably
	// infeasible after the data changed) is silently discarded in favour of
	// a cold phase 1, so warm starts never change the solve outcome — only
	// its speed. Under Dual, an infeasible problem can be proved so from
	// the snapshot itself, by a certificate checked against the problem.
	WarmBasis *Basis
	// Dual attempts a dual simplex re-solve from WarmBasis before the
	// primal warm path: the snapshot's statuses are installed, and if they
	// are still dual feasible (which an optimal basis remains under
	// rhs/bound-only perturbations), dual pivots drive the out-of-bounds
	// basics home in a handful of iterations instead of a primal repair
	// phase. When no column can absorb a row's violation, the row's ray is
	// checked as a Farkas certificate on the problem as posed, with a
	// margin no point a cold phase 1 accepts can cross; if it holds, the
	// solve ends Infeasible there. A start that is dual infeasible, or a
	// dual phase that fails (iteration limit, numerical trouble, a ray that
	// fails the check), falls back to the primal warm path and then cold,
	// so enabling Dual never changes the solve outcome. Ignored without
	// WarmBasis. Model.SolveWithOptions sets this automatically when only
	// rhs/bounds changed since the basis was taken: by SetBounds, or by a
	// rebuild after Reset that came back in the same shape with only
	// right-hand sides and bounds changed.
	Dual bool
	// Obs, when non-nil, receives per-solve telemetry: phase spans
	// (standardize, factor, refactor, phase1, phase2, dual — with its
	// verdict — and warm-repair), warm-path instants (cold-fallback,
	// dual-reject), and solve-level
	// counters/histograms. The nil default costs one pointer check per
	// hook site. See internal/obs.
	Obs *obs.Observer

	// The solver's two fallbacks and its refactor cadence, reachable from
	// this package's tests only. dense starts the solve on the dense basis
	// inverse — where a sparse solve in numerical trouble ends up — which
	// the equivalence suites use as their reference; blandOnly prices by
	// Bland's rule from the first pivot instead of after a degenerate run;
	// reinvertEvery is the pivot count between scheduled refactorizations
	// (default 512).
	dense         bool
	blandOnly     bool
	reinvertEvery int
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIters == 0 {
		o.MaxIters = 50*(m+n) + 10000
	}
	if o.TolFeas == 0 {
		o.TolFeas = 1e-7
	}
	if o.TolOpt == 0 {
		o.TolOpt = 1e-7
	}
	if o.TolPivot == 0 {
		o.TolPivot = 1e-8
	}
	if o.reinvertEvery == 0 {
		o.reinvertEvery = 512
	}
	return o
}

// Solve optimizes the problem with default options.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveWithOptions(Options{})
}

// SolveWithOptions optimizes the problem. A non-nil error is returned only
// for malformed models; solver outcomes (infeasible, unbounded, ...) are
// reported through Solution.Status.
func (p *Problem) SolveWithOptions(opts Options) (*Solution, error) {
	if len(p.obj) == 0 {
		return nil, fmt.Errorf("lp: model has no variables")
	}
	sol := solveStd(p.standardizeObs(opts.Obs, nil), opts)
	if opts.denseRetry(sol.Status) {
		sol = solveStd(p.standardizeObs(opts.Obs, nil), opts)
	}
	return sol, nil
}

// denseRetry is the last line of the fallback policy, shared by Problem and
// Model solves: it reports whether a solve that ended in status st under o
// earns one more attempt, and rewrites o for it. A solve that still ended in
// numerical failure — after the sparse factor's own mid-solve switch to the
// dense inverse — is re-run once from scratch on the dense inverse, whose
// pivot sequence differs enough to escape most bad factorizations. A
// warm-started dense solve gets the same one retry (cold), so a stale basis
// can never change the solve outcome.
func (o *Options) denseRetry(st Status) bool {
	if st != Numerical || (o.dense && o.WarmBasis == nil) {
		return false
	}
	o.Obs.Instant("lp.dense-retry", nil)
	o.dense = true
	o.WarmBasis = nil // a bad warm basis must not poison the retry
	o.Dual = false
	return true
}

// standardized holds the equality-form model  min cᵀx, Ax = b, l ≤ x ≤ u.
// Columns 0..n-1 are structural; columns n..n+m-1 are slacks (one per row).
type standardized struct {
	m, n  int // rows, structural columns
	ncols int // n + m

	// Column-wise sparse A, including slack columns.
	colPtr []int32
	rowInd []int32
	values []float64

	c      []float64 // minimization costs, len ncols
	lb, ub []float64 // len ncols
	b      []float64 // len m

	maximize bool
	objSign  float64 // -1 when maximize (c was negated), else +1

	// stamp is standardize's per-variable scratch (the last row that touched
	// the variable), kept with the buffers so a Model's rebuilds reuse it.
	stamp []int32
}

// standardizeObs is standardize under its "lp.standardize" span.
func (p *Problem) standardizeObs(o *obs.Observer, into *standardized) *standardized {
	sp := o.Span("lp.standardize")
	std := p.standardize(into)
	sp.End()
	return std
}

// standardize converts the builder into equality form. It writes into the
// buffers of `into` — a previous build the caller no longer needs, dirty
// leftovers of any shape — growing only those that are too small, and
// returns `into`; nil builds a fresh form.
//
// Two passes over the rows, no maps: the first counts each column's entries,
// the second fills them. Rows are visited in order, so every column's row
// indices ascend. A per-variable stamp of the last row that touched the
// variable detects duplicate indices within a row; a later duplicate adds
// into the slot its first occurrence opened, in row order.
func (p *Problem) standardize(into *standardized) *standardized {
	m := len(p.rows)
	n := len(p.obj)
	s := into
	if s == nil {
		s = &standardized{}
	}
	s.m, s.n, s.ncols = m, n, n+m
	s.maximize = p.objective == Maximize
	s.objSign = 1
	if s.maximize {
		s.objSign = -1
	}
	s.c = sized(s.c, n+m)
	s.lb = sized(s.lb, n+m)
	s.ub = sized(s.ub, n+m)
	s.b = sized(s.b, m)
	for j := 0; j < n; j++ {
		s.c[j] = s.objSign * p.obj[j]
		s.lb[j] = p.lb[j]
		s.ub[j] = p.ub[j]
	}

	s.stamp = sized(s.stamp, n)
	stamp := s.stamp
	clear(stamp)

	// Pass 1: entries per column, counted into colPtr[j+1].
	colPtr := sized(s.colPtr, n+m+1)
	s.colPtr = colPtr
	clear(colPtr[:n+1])
	for i := range p.rows {
		row := int32(i + 1)
		for _, v := range p.rows[i].idx {
			if stamp[v] != row {
				stamp[v] = row
				colPtr[v+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	for i := 0; i < m; i++ { // one slack per row
		colPtr[n+i+1] = colPtr[n+i] + 1
	}
	total := int(colPtr[n+m])
	s.rowInd = sized(s.rowInd, total)
	s.values = sized(s.values, total)

	// Pass 2: fill, with colPtr[j] as column j's cursor: it ends at column
	// j+1's start and is shifted back afterwards. Stamps continue past pass
	// 1's (row i is now m+i+1), so the array needs no second clear.
	for i := range p.rows {
		r := &p.rows[i]
		row := int32(m + i + 1)
		for t, v := range r.idx {
			if stamp[v] != row {
				stamp[v] = row
				s.rowInd[colPtr[v]] = int32(i)
				s.values[colPtr[v]] = 0 // merged sums start from +0, as 0 + (-0) does
				colPtr[v]++
			}
			s.values[colPtr[v]-1] += r.val[t]
		}
		s.b[i] = r.rhs

		// Slack column.
		sc := n + i
		pos := colPtr[sc]
		colPtr[sc]++
		s.rowInd[pos] = int32(i)
		s.c[sc] = 0
		switch r.sense {
		case LE:
			s.values[pos] = 1
			s.lb[sc], s.ub[sc] = 0, Inf
		case GE:
			s.values[pos] = -1
			s.lb[sc], s.ub[sc] = 0, Inf
		case EQ:
			s.values[pos] = 1
			s.lb[sc], s.ub[sc] = 0, 0
		default: // not a Sense: the empty column a fresh build would leave
			s.values[pos] = 0
			s.lb[sc], s.ub[sc] = 0, 0
		}
	}
	copy(colPtr[1:], colPtr[:n+m])
	colPtr[0] = 0
	return s
}

// col returns the sparse column j as (row indices, values).
func (s *standardized) col(j int) ([]int32, []float64) {
	lo, hi := s.colPtr[j], s.colPtr[j+1]
	return s.rowInd[lo:hi], s.values[lo:hi]
}
