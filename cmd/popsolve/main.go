// Command popsolve solves a linear or mixed-integer program given in
// free-format MPS, using this repository's from-scratch simplex and
// sequential branch and bound — the same solver configuration every POP
// sub-problem runs. It demonstrates that the solver substrate underneath
// the POP experiments is a usable standalone tool.
//
// Usage:
//
//	popsolve model.mps              # solve, print status/objective/nonzeros
//	popsolve -all model.mps         # also print zero-valued variables
//	popsolve -relax model.mps       # ignore integrality markers, solve the LP
//	popsolve -timelimit 10 m.mps    # stop branch and bound after 10 s
//	echo "..." | popsolve -         # read from stdin
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pop/internal/lp"
	"pop/internal/milp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment abstracted, so the end-to-end test can
// drive the tool in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("popsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		showAll = fs.Bool("all", false, "print all variables, not just nonzeros")
		relax   = fs.Bool("relax", false, "solve the LP relaxation even if integer markers are present")
		maxSecs = fs.Float64("timelimit", 300, "MILP time limit in seconds")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: popsolve [-all] [-relax] [-timelimit seconds] <model.mps | ->")
		return 2
	}

	in := stdin
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		in = f
	}

	prob, intVars, err := lp.ReadMPS(in)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "model: %d variables (%d integer), %d constraints, %d nonzeros\n",
		prob.NumVariables(), len(intVars), prob.NumConstraints(), prob.NumNonzeros())

	start := time.Now()
	var status string
	var objective float64
	var x []float64

	if len(intVars) > 0 && !*relax {
		mp := milp.Wrap(prob, intVars)
		sol, err := mp.SolveWithOptions(milp.Options{
			TimeLimit: time.Duration(*maxSecs * float64(time.Second)),
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		status = sol.Status.String()
		objective = sol.Objective
		x = sol.X
		fmt.Fprintf(stdout, "branch-and-bound: %d nodes (%d warm, %d cold-fallback), gap %.3g\n",
			sol.Nodes, sol.WarmNodes, sol.ColdFallbacks, sol.Gap)
		fmt.Fprintf(stdout, "pivots: %d (%d dual), build %v, solve %v\n",
			sol.LPPivots, sol.DualPivots,
			time.Duration(sol.BuildNs).Round(time.Microsecond),
			time.Duration(sol.SolveNs).Round(time.Microsecond))
	} else {
		sol, err := prob.Solve()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		status = sol.Status.String()
		objective = sol.Objective
		x = sol.X
		fmt.Fprintf(stdout, "simplex: %d iterations\n", sol.Iterations)
	}
	fmt.Fprintf(stdout, "status: %s in %v\n", status, time.Since(start).Round(time.Millisecond))
	if status != "optimal" && status != "feasible" {
		return 0
	}
	fmt.Fprintf(stdout, "objective: %.10g\n", objective)
	for j, v := range x {
		if *showAll || v > 1e-9 || v < -1e-9 {
			fmt.Fprintf(stdout, "  x%-6d = %.8g\n", j, v)
		}
	}
	return 0
}
