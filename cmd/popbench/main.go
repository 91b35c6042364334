// Command popbench regenerates the POP paper's evaluation tables and
// figures from this repository's implementation.
//
// Usage:
//
//	popbench -list
//	popbench -exp fig9 [-scale small|medium|large]
//	popbench -exp all  [-scale small]
//
// Each experiment prints an aligned table whose rows mirror the series in
// the corresponding paper figure; EXPERIMENTS.md records the comparison
// against the paper's reported values.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pop/internal/experiments"
)

func main() {
	var (
		expName   = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		scaleName = flag.String("scale", "medium", "problem scale: small|medium|large")
		list      = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list || *expName == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Desc)
		}
		if *expName == "" && !*list {
			os.Exit(2)
		}
		return
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var entries []experiments.Entry
	if *expName == "all" {
		entries = experiments.Registry()
	} else {
		e, ok := experiments.Get(*expName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expName)
			os.Exit(2)
		}
		entries = []experiments.Entry{e}
	}

	for _, e := range entries {
		start := time.Now()
		res, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		fmt.Printf("(%s at scale %s in %v)\n\n", e.Name, scale, time.Since(start).Round(time.Millisecond))
	}
}
