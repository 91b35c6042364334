// Package experiments regenerates every table and figure in the POP
// paper's evaluation (§7). Each experiment is a function from a Scale to a
// Result table whose rows mirror the series plotted in the paper; the
// cmd/popbench binary prints them, the repository's benchmarks time them,
// and EXPERIMENTS.md records paper-vs-measured values.
//
// Scales: Small keeps the full suite runnable in minutes (used by tests and
// benchmarks), Medium is the popbench default, Large approaches the paper's
// problem sizes. Large-scale runtime is dominated by LP sub-problem solves,
// which with the sparse-LU basis factor (internal/lp) scale with
// constraint-matrix fill rather than the cube of the row count.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Scale selects experiment sizing.
type Scale int8

const (
	// Small: seconds per experiment; tests and benchmarks.
	Small Scale = iota
	// Medium: tens of seconds; the popbench default.
	Medium
	// Large: minutes+; closest to paper scale.
	Large
)

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale parses "small", "medium", or "large".
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return Small, fmt.Errorf("experiments: unknown scale %q (want small|medium|large)", s)
}

// Result is one regenerated table or figure.
type Result struct {
	Name   string // experiment id, e.g. "fig9"
	Title  string // what the paper's table/figure shows
	Header []string
	Rows   [][]string
	Notes  []string // substitutions, scale caveats
}

// String renders an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.Name, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(Scale) (*Result, error)

// Entry registers one experiment.
type Entry struct {
	Name string
	Desc string
	Run  Runner
}

// Registry lists every reproducible table and figure, in paper order.
func Registry() []Entry {
	return []Entry{
		{"table1", "WAN topologies used for traffic engineering", Table1},
		{"fig2", "max-min fairness + space sharing: quality vs runtime (vs Gandiva)", Fig2},
		{"fig6", "end-to-end average JCT vs policy runtime (max-min + space sharing)", Fig6},
		{"fig7", "proportional fairness: runtime vs sum-of-log utility", Fig7},
		{"fig8", "minimize makespan: policy runtime vs makespan", Fig8},
		{"fig9", "TE max total flow on Kdl: exact vs POP vs CSPF vs NCFlow", Fig9},
		{"fig10", "TE max-flow sweep: POP-16 speedup and flow ratio across topologies/TMs", Fig10},
		{"fig11", "5-day WAN trace: NCFlow vs POP (with/without client splitting)", Fig11},
		{"fig12", "TE max concurrent flow on Kdl: exact vs POP", Fig12},
		{"fig13", "load balancing: MILP vs POP vs greedy (runtime, movements)", Fig13},
		{"fig14", "client splitting CDFs on Gravity vs Poisson traffic", Fig14},
		{"fig15", "resource splitting vs topology sharding as k grows", Fig15},
		{"fig16", "partitioning strategies: random vs power-of-2 vs skewed", Fig16},
		{"sec51", "§5.1/Appendix A Chernoff bound values and Monte Carlo check", Section51},
		{"ext", "extensions: geo partitioning, POP×NCFlow composition", Extensions},
		{"scaling", "POP quality vs instance granularity (the §5.1 bound, empirically)", Scaling},
	}
}

// Get looks up an experiment by name.
func Get(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// --- formatting helpers shared by the experiment files ---

func fs(x float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, x)
}

func fdur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// timed runs f once and returns its duration alongside f's error.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// quantile returns the q-quantile (0..1) of xs (xs is copied and sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	pos := q * float64(len(ys)-1)
	lo := int(pos)
	if lo >= len(ys)-1 {
		return ys[len(ys)-1]
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[lo+1]*frac
}

// pick returns the per-scale value.
func pick[T any](s Scale, small, medium, large T) T {
	switch s {
	case Medium:
		return medium
	case Large:
		return large
	default:
		return small
	}
}
