package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"pop/internal/obs"
)

// workload is one set of inputs the benchmark runs. pass builds fresh
// state from the seed, sets it up cold, warms it and times a fixed round
// sequence; ref is the exact unpartitioned optimum the pass's objective is
// divided by (nil when the objective already is a share).
type workload struct {
	name, why string
	pass      func(rec *recorder) error
	ref       *reference
}

var workloads = []*workload{
	{
		name: "serve-price",
		why:  "sharded serving with the price engine: a round is a few warm price iterations, so registry diff, JSON wire, sync and merge dominate and serving-path work shows here",
		pass: func(rec *recorder) error { return servePass(rec, "price", rec.sz.PriceClients, 1) },
		ref:  clusterRef,
	},
	{
		name: "serve-lp",
		why:  "same fleet and churn on the max-min LP engine: time is in online model splices and warm/dual lp pivots, so a wire change should not move it and an lp/online change should",
		pass: func(rec *recorder) error { return servePass(rec, "maxmin", rec.sz.LPClients, rec.sz.LPK) },
		ref:  clusterRef,
	},
	{
		name: "batch-te",
		why:  "paper 4.2 traffic engineering: cold lp solves (standardize, factor, phase 1/2) of POP sub-problems plus core.Partition/ParallelMap fan-out, so a warm-path gain that costs cold solves shows here",
		pass: tePass,
		ref:  teRef,
	},
	{
		name: "batch-lb",
		why:  "paper 4.3 load balancing: the only path through milp branch and bound and lb-shaped wide-and-short bases with bound-only dual re-solves",
		pass: lbPass,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// counter is a work count that must repeat exactly from pass to pass.
type counter struct {
	name  string
	value float64
}

// passResult is what one pass measured.
type passResult struct {
	traced  bool
	setupS  float64
	roundMs []float64
	// objective is the workload's quality numerator (see README).
	objective float64
	heapMB    float64
	calibMs   float64

	attempted, failed int
	failure           string

	counters []counter
	// layer holds the per-layer metrics; only traced passes fill it.
	layer map[string]float64
}

// recorder is the measuring half of a pass: the workload code calls it
// around set-up, warm-up and timed rounds, and it keeps the clock, the
// spans and the failure count the same way on every workload.
type recorder struct {
	seed int64
	sz   sizes
	tr   *obs.Trace // nil on untraced passes
	res  *passResult

	// Process cost of the timed rounds alone (traced passes): what runs
	// between rounds — churn, checks, the direct engine — is left out.
	cpu    time.Duration
	allocs uint64
	gcs    uint64
}

func (rec *recorder) traced() bool { return rec.tr != nil }

// span opens a benchmark span on lane tid; a nil trace makes it a no-op.
func (rec *recorder) span(tid int, name string) *obs.Span { return rec.tr.Begin(tid, name) }

// setup times one piece of cold set-up; pieces add up to setup_s.
func (rec *recorder) setup(f func() error) error {
	sp := rec.span(0, "bench.setup")
	start := time.Now()
	err := f()
	rec.res.setupS += time.Since(start).Seconds()
	sp.End()
	return err
}

// attempt books one round's outcome: err is a solver error or a failed
// correctness check.
func (rec *recorder) attempt(err error) {
	rec.res.attempted++
	if err != nil {
		rec.res.failed++
		if rec.res.failure == "" {
			rec.res.failure = err.Error()
		}
	}
}

// beginTimed collects the garbage of set-up and warm-up so the timed
// rounds start from the same heap on every pass.
func (rec *recorder) beginTimed() { runtime.GC() }

// round times one round. check runs after the clock stops and only when
// the round itself returned no error.
func (rec *recorder) round(round func() error, check func() error) {
	var cpu0 time.Duration
	var heap0 [2]metrics.Sample
	if rec.traced() {
		cpu0, heap0 = cpuTime(), heapCounters()
	}
	sp := rec.span(0, "bench.round")
	start := time.Now()
	err := round()
	rec.res.roundMs = append(rec.res.roundMs, float64(time.Since(start).Nanoseconds())/1e6)
	sp.End()
	if rec.traced() {
		heap1 := heapCounters()
		rec.cpu += cpuTime() - cpu0
		rec.allocs += heap1[0].Value.Uint64() - heap0[0].Value.Uint64()
		rec.gcs += heap1[1].Value.Uint64() - heap0[1].Value.Uint64()
	}
	if err == nil {
		err = check()
	}
	rec.attempt(err)
}

// finish books the process-level cost of the timed rounds (traced passes)
// and measures the live heap with the pass's state (keep) still held.
func (rec *recorder) finish(keep ...any) {
	if n := float64(len(rec.res.roundMs)); rec.traced() && n > 0 {
		rec.res.layer["proc.cpu_ms_per_round"] = float64(rec.cpu.Nanoseconds()) / 1e6 / n
		rec.res.layer["proc.alloc_mb_per_round"] = float64(rec.allocs) / (1 << 20) / n
		rec.res.layer["proc.gc_cycles"] = float64(rec.gcs) / n
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.res.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(keep)
}

func (rec *recorder) count(name string, value float64) {
	rec.res.counters = append(rec.res.counters, counter{name, value})
}

// heapCounters reads the runtime's cumulative allocated bytes and completed
// GC cycles without stopping the world.
func heapCounters() [2]metrics.Sample {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s[:])
	return s
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSink keeps the compiler from deleting the calibration loop.
var calibSink uint64

// calibrate spins a fixed amount of integer work (about 75 ms on an idle
// core of the reference box) and returns how long it took: a rough reading
// of how busy the machine was just before a pass.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// workloadRun collects the passes of one workload in one benchmark run.
type workloadRun struct {
	w      *workload
	seed   int64
	sz     sizes
	ref    float64 // exact optimum the objective is divided by
	passes []*passResult
	extra  int // adaptive passes beyond the base count
}

// runPass runs one fresh pass and appends its result.
func (wr *workloadRun) runPass(tr *obs.Trace) error {
	res := &passResult{traced: tr != nil, calibMs: calibrate(), layer: map[string]float64{}}
	rec := &recorder{seed: wr.seed, sz: wr.sz, tr: tr, res: res}
	sp := rec.span(0, "bench.pass").Arg("workload", wr.w.name)
	err := wr.w.pass(rec)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", wr.w.name, err)
	}
	if len(res.roundMs) == 0 {
		return fmt.Errorf("%s: pass timed no rounds", wr.w.name)
	}
	wr.passes = append(wr.passes, res)
	return nil
}

func (wr *workloadRun) passesOf(traced bool) []*passResult {
	var out []*passResult
	for _, p := range wr.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// passMedians returns the per-pass round_ms_p50 of the given passes.
func passMedians(passes []*passResult) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = median(p.roundMs)
	}
	return out
}

// spreadPct is the IQR of the untraced passes' round_ms_p50 as a share of
// their median: the number the adaptive-pass rule looks at.
func (wr *workloadRun) spreadPct() float64 {
	return 100 * iqrShare(passMedians(wr.passesOf(false)))
}

// bestRounds returns, for every round of the fixed sequence, its fastest
// time over the given passes. Every pass does identical work round for
// round (drift checks that), and neighbour load on a shared box only ever
// slows a round down, in bursts that outlast a round but not a run: the
// fastest of several timings of the same round is the one closest to the
// undisturbed program. A burst has to hit the same round in every pass to
// move the result, where it moves a median over passes as soon as it hits
// half of them. A change that really slows the program slows every pass.
func bestRounds(passes []*passResult) []float64 {
	best := slices.Clone(passes[0].roundMs)
	for _, p := range passes[1:] {
		for r := range best {
			best[r] = min(best[r], p.roundMs[r])
		}
	}
	return best
}

// endToEnd aggregates the untraced passes: round latency and throughput
// from the best timing of each round, set-up and live heap from the best
// pass (the heap left after a collection is not the same on every pass
// either: a map caught mid-growth or a pooled buffer adds several MB).
func (wr *workloadRun) endToEnd() map[string]float64 {
	passes := wr.passesOf(false)
	var setup, heap []float64
	for _, p := range passes {
		setup = append(setup, p.setupS)
		heap = append(heap, p.heapMB)
	}
	best := bestRounds(passes)
	return map[string]float64{
		"round_ms_p50": median(best),
		"rounds_per_s": float64(len(best)) / (sum(best) / 1e3),
		"quality_pct":  100 * passes[0].objective / wr.ref,
		"live_heap_mb": slices.Min(heap),
		"setup_s":      slices.Min(setup),
	}
}

// perLayer aggregates the traced passes' layer metrics (median over
// passes) and adds the process-level diagnostics that need several passes.
func (wr *workloadRun) perLayer() map[string]float64 {
	traced, untraced := wr.passesOf(true), wr.passesOf(false)
	out := map[string]float64{}
	for _, m := range perLayer {
		var vs []float64
		for _, p := range traced {
			vs = append(vs, p.layer[m.Name])
		}
		out[m.Name] = median(vs)
	}
	var tails, calib []float64
	for _, p := range wr.passes {
		tails = append(tails, p90(p.roundMs))
		calib = append(calib, p.calibMs)
	}
	out["proc.round_ms_p90"] = median(tails)
	out["proc.calib_ms_p50"] = median(calib)
	out["proc.pass_spread_pct"] = 100 * iqrShare(passMedians(wr.passes))
	if len(traced) > 0 && len(untraced) > 0 {
		out["proc.trace_overhead_pct"] = 100 * (median(bestRounds(traced))/median(bestRounds(untraced)) - 1)
	}
	return out
}

// totals sums rounds attempted and failed over every pass.
func (wr *workloadRun) totals() (attempted, failed int, failure string) {
	for _, p := range wr.passes {
		attempted += p.attempted
		failed += p.failed
		if failure == "" {
			failure = p.failure
		}
	}
	return attempted, failed, failure
}

// drift names the first work counter whose value differs between two
// passes. Every pass does the same seeded work, so a difference means the
// program (or the benchmark) is not deterministic and its timings cannot
// be compared.
func (wr *workloadRun) drift() error {
	type seen struct {
		value float64
		pass  int
	}
	first := map[string]seen{}
	for i, p := range wr.passes {
		for _, c := range p.counters {
			if f, ok := first[c.name]; !ok {
				first[c.name] = seen{c.value, i}
			} else if f.value != c.value {
				return fmt.Errorf("%s: work counter %s drifted: %v in pass %d, %v in pass %d",
					wr.w.name, c.name, f.value, f.pass+1, c.value, i+1)
			}
		}
	}
	return nil
}
