// Command bench is the repository's benchmark: four workloads that each
// stress a different layer of the stack, end-to-end metrics with regression
// bounds, and a traced run that attributes a round to the layers under it.
// README.md documents every metric, workload and flag; BENCHMARK.json is
// the machine-readable contract.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload serve-price --seed 1 --seconds 20 --trace 0
//	go run -C bench . [-quick] [-trace 1] [-repeat-check]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pop/internal/obs"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceOut  string
	quick     bool
	out       io.Writer
	sizes     sizes
	workloads []*workload
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all four, passes interleaved round-robin)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measure for about this long (default: 5 passes per workload plus adaptive ones)")
	flag.IntVar(&trace, "trace", 0, "1 adds traced passes and reports the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace.json)")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes (seconds, not minutes)")
	repeat := flag.Bool("repeat-check", false, "run twice and compare every end-to-end metric against its bound (A/A)")
	writeTo := flag.String("write-refs", "", "recompute the seed-1 reference optima and write them to this file")
	check := flag.Bool("check-refs", false, "recompute the committed reference optima and fail if one moved")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.out = os.Stdout

	// The sizes were chosen on two cores; more would change which layer
	// bounds a round, so the benchmark pins what it was calibrated on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *writeTo != "":
		err = writeRefs(*writeTo)
	case *check:
		err = checkRefs()
	case *repeat:
		err = repeatCheck(cfg)
	default:
		_, err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (cfg *config) resolve() error {
	cfg.sizes = fullSizes
	if cfg.quick {
		cfg.sizes = quickSizes
	}
	cfg.workloads = workloads
	if cfg.workload != "" {
		w := workloadByName(cfg.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		cfg.workloads = []*workload{w}
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace.json")
	}
	return nil
}

// run executes one benchmark run: references, passes, checks, report.
func run(cfg config) ([]*workloadRun, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "bench: seed=%d gomaxprocs=%d num_cpu=%d %s quick=%v trace=%v\n",
		cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cfg.quick, cfg.trace)

	runs := make([]*workloadRun, len(cfg.workloads))
	refs := map[*reference]float64{}
	for i, w := range cfg.workloads {
		runs[i] = &workloadRun{w: w, seed: cfg.seed, sz: cfg.sizes, ref: 1}
		if w.ref == nil {
			continue
		}
		if _, ok := refs[w.ref]; !ok {
			v, committed, err := w.ref.lookup(cfg.seed, cfg.sizes)
			if err != nil {
				return nil, err
			}
			refs[w.ref] = v
			fmt.Fprintf(cfg.out, "reference %s = %.9g (committed=%v)\n", w.ref.name, v, committed)
		}
		runs[i].ref = refs[w.ref]
	}

	var tr *obs.Trace
	if cfg.trace {
		tr = obs.NewTrace()
	}
	if err := schedule(cfg, runs, tr); err != nil {
		return nil, err
	}
	for _, wr := range runs {
		if err := wr.drift(); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return nil, err
		}
		if err := tr.WriteFile(cfg.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.out, "trace: %d events in %s\n", tr.Len(), cfg.traceOut)
		printSelfTimes(cfg.out, tr.Events())
	}
	for _, wr := range runs {
		report(cfg, wr)
	}
	for _, wr := range runs {
		if err := printResult(cfg, wr, len(runs) > 1); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// schedule runs the passes. Passes of different workloads are interleaved
// round-robin — pass 1 of every workload, then pass 2, … — so a burst of
// neighbour load taints a minority of each workload's passes instead of one
// workload's whole sample. With -seconds the sweep repeats until the time
// is used; without it every workload gets basePasses passes, and a workload
// whose passes disagree by more than spreadForExtraPc gets up to
// extraPassesCap more. A traced run keeps the first sweep untraced (the
// baseline for proc.trace_overhead_pct) and traces the rest.
func schedule(cfg config, runs []*workloadRun, tr *obs.Trace) error {
	sweep := func(tr *obs.Trace, pick func(*workloadRun) bool) (time.Duration, error) {
		start := time.Now()
		for _, wr := range runs {
			if pick(wr) {
				if err := wr.runPass(tr); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}
	all := func(*workloadRun) bool { return true }

	if cfg.seconds > 0 {
		budget := time.Duration(cfg.seconds * float64(time.Second))
		start := time.Now()
		minSweeps := minTimedPasses
		if tr != nil {
			minSweeps = 2
		}
		// A sweep is started only when one as long as the last would still
		// end inside the budget, so a run overshoots by at most the noise
		// of one sweep.
		var last time.Duration
		for n := 0; n < minSweeps || time.Since(start)+last <= budget; n++ {
			use := tr
			if n == 0 {
				use = nil
			}
			var err error
			if last, err = sweep(use, all); err != nil {
				return err
			}
		}
		return nil
	}

	for n := 0; n < basePasses; n++ {
		if _, err := sweep(nil, all); err != nil {
			return err
		}
	}
	for n := 0; n < extraPassesCap; n++ {
		noisy := func(wr *workloadRun) bool {
			if wr.spreadPct() <= spreadForExtraPc {
				return false
			}
			wr.extra++
			return true
		}
		if _, err := sweep(nil, noisy); err != nil {
			return err
		}
	}
	if tr != nil {
		if _, err := sweep(tr, all); err != nil {
			return err
		}
	}
	return nil
}

// report prints one workload's table: every metric by name with its unit.
func report(cfg config, wr *workloadRun) {
	attempted, failed, failure := wr.totals()
	fmt.Fprintf(cfg.out, "\n== %s: passes=%d (untraced %d, traced %d, adaptive %d of at most %d) rounds attempted=%d failed=%d\n",
		wr.w.name, len(wr.passes), len(wr.passesOf(false)), len(wr.passesOf(true)), wr.extra, extraPassesCap, attempted, failed)
	if failure != "" {
		fmt.Fprintf(cfg.out, "   first failure: %s\n", failure)
	}
	fmt.Fprintf(cfg.out, "   per-pass round_ms_p50 %.4g (spread %.1f%%)\n", passMedians(wr.passes), wr.spreadPct())

	e2e := wr.endToEnd()
	for _, m := range endToEnd {
		fmt.Fprintf(cfg.out, "  %-30s %14.6g %-6s %-6s bound %g%%\n", m.Name, e2e[m.Name], m.Unit, m.Better, 100*m.Bound)
	}
	if !cfg.trace {
		return
	}
	layer := wr.perLayer()
	for _, m := range perLayer {
		fmt.Fprintf(cfg.out, "  %-30s %14.6g %-6s %s\n", m.Name, layer[m.Name], m.Unit, m.Better)
	}
}

// result is the machine-readable last line the benchmark contract asks
// for. An untraced run carries the end-to-end metrics, a traced run the
// per-layer ones.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(cfg config, wr *workloadRun, named bool) error {
	defs, values := endToEnd, wr.endToEnd()
	if cfg.trace {
		defs, values = perLayer, wr.perLayer()
	}
	res := result{Metrics: map[string]metricValue{}}
	if named {
		res.Workload = wr.w.name
	}
	res.Attempted, res.Failed, _ = wr.totals()
	res.Correct = res.Failed == 0
	for _, m := range defs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", wr.w.name, m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(cfg.out, "%s\n", raw)
	return err
}

// repeatCheck runs the benchmark twice in one invocation and compares
// every end-to-end metric of every workload against its bound: the A/A
// test that says whether the bounds are wider than the noise.
func repeatCheck(cfg config) error {
	cfg.trace = false
	a, err := run(cfg)
	if err != nil {
		return err
	}
	b, err := run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "\n%-12s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	breaches := 0
	for i := range a {
		ea, eb := a[i].endToEnd(), b[i].endToEnd()
		for _, m := range endToEnd {
			diff := math.Abs(eb[m.Name]-ea[m.Name]) / math.Abs(ea[m.Name])
			mark := ""
			if diff > m.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(cfg.out, "%-12s %-14s %14.6g %14.6g %8.2f%% %6.1f%%%s\n",
				a[i].w.name, m.Name, ea[m.Name], eb[m.Name], 100*diff, 100*m.Bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("repeat-check: %d metric(s) moved by more than their bound between two runs of the same code", breaches)
	}
	return nil
}
