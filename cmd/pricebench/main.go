// Command pricebench measures the price-discovery allocation engine
// (internal/price) against the LP paths it substitutes for: per-round
// latency and allocation quality over low-churn online round sequences on
// the cluster and lb case studies, with the warm POP LP engine as the
// latency baseline and the single global LP solve as the quality reference.
// Gaps are reported, never hidden — the price engine is an approximation
// and the record says by how much.
//
// Families:
//
//	cluster-online  warm LP POP engine vs price engine over job-churn
//	                rounds, with the global max-min LP objective as the
//	                quality reference (gap_vs_global).
//	lb-online       warm LP POP shard balancer vs price engine over
//	                load-jitter rounds; quality is the worst band deviation.
//	price-scale     price engine alone at 50k–1M clients: cold vs warm
//	                iterations-to-clearing and warm per-round latency. The
//	                LP is not run at these sizes.
//
// Usage:
//
//	pricebench [-engine all|lp|price] [-o BENCH_price.json] [-reps 3]
//	           [-rounds 6] [-seed 1] [-quick] [-metrics]
//
// -quick shrinks every family to smoke-test size (CI); -metrics dumps the
// price engine's Prometheus counters to stderr after the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"pop/internal/cluster"
	"pop/internal/lb"
	"pop/internal/lp"
	"pop/internal/obs"
	"pop/internal/online"
	"pop/internal/price"
)

// metricsObs is non-nil only under -metrics; the price engines carry it so
// their counters land in the dumped registry.
var (
	metricsReg *obs.Registry
	metricsObs *obs.Observer
)

type record struct {
	Family  string `json:"family"`
	Engine  string `json:"engine"` // lp | price
	Clients int    `json:"clients"`
	Rounds  int    `json:"rounds"`
	// NsPerRound is the best-repetition mean per timed round (batch
	// families: per solve).
	NsPerRound int64 `json:"ns_per_round"`
	// Objective is the engine's policy objective on the final round
	// (cluster: alpha-fair max-min utility; lb: negated worst deviation).
	Objective float64 `json:"objective"`
	// GlobalObjective and GapVsGlobal compare against the single global LP
	// solve on the final round's jobs (cluster families only; 0 where the
	// reference was not computed).
	GlobalObjective float64 `json:"global_objective,omitempty"`
	GapVsGlobal     float64 `json:"gap_vs_global,omitempty"`
	// SpeedupVsLP is the LP baseline's ns_per_round over this engine's —
	// filled on price records when the lp record of the same family/size ran.
	SpeedupVsLP float64 `json:"speedup_vs_lp,omitempty"`
	// MaxDeviation is the lb band violation of the final round (lb only).
	MaxDeviation float64 `json:"max_deviation,omitempty"`
	// Price-engine accounting (price records only).
	ColdIterations int     `json:"cold_iterations,omitempty"`
	WarmIterations int     `json:"warm_iterations,omitempty"`
	Residual       float64 `json:"residual,omitempty"`
	WarmRounds     int     `json:"warm_rounds,omitempty"`
}

type report struct {
	GeneratedAt string   `json:"generated_at"`
	Seed        int64    `json:"seed"`
	Reps        int      `json:"reps"`
	Records     []record `json:"records"`
}

func main() {
	var (
		engine  = flag.String("engine", "all", "engines to run: all | lp | price")
		out     = flag.String("o", "BENCH_price.json", "output file ('-' for stdout)")
		reps    = flag.Int("reps", 3, "repetitions (best per-round time is kept)")
		rounds  = flag.Int("rounds", 6, "timed rounds per sequence")
		seed    = flag.Int64("seed", 1, "workload seed")
		quick   = flag.Bool("quick", false, "smoke-test sizes only (CI)")
		metrics = flag.Bool("metrics", false, "dump price-engine Prometheus counters to stderr")
	)
	flag.Parse()
	switch *engine {
	case "all", "lp", "price":
	default:
		fmt.Fprintf(os.Stderr, "pricebench: unknown -engine %q (want all|lp|price)\n", *engine)
		os.Exit(2)
	}
	if *metrics {
		metricsReg = obs.NewRegistry()
		metricsObs = &obs.Observer{Metrics: metricsReg}
	}
	want := func(e string) bool { return *engine == "all" || *engine == e }

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        *seed,
		Reps:        *reps,
	}

	clusterSizes := []int{400, 1600, 6400}
	lbSizes := []int{250, 1000, 4000}
	scaleSizes := []int{50_000, 250_000, 1_000_000}
	if *quick {
		clusterSizes, lbSizes, scaleSizes = []int{200}, []int{120}, []int{20_000}
	}

	for _, n := range clusterSizes {
		recs := benchClusterOnline(n, *rounds, *reps, *seed, want("lp"), want("price"))
		rep.Records = append(rep.Records, recs...)
	}
	for _, n := range lbSizes {
		recs := benchLBOnline(n, *rounds, *reps, *seed, want("lp"), want("price"))
		rep.Records = append(rep.Records, recs...)
	}
	if want("price") {
		for _, n := range scaleSizes {
			rep.Records = append(rep.Records, benchPriceScale(n, *reps, *seed))
		}
	}

	for _, r := range rep.Records {
		fmt.Fprintf(os.Stderr, "%-14s %-6s clients=%-8d ns/round=%-12v obj=%-10.4f gap=%-7.4f speedup=%-6.2f warmIters=%-5d coldIters=%-5d\n",
			r.Family, r.Engine, r.Clients, time.Duration(r.NsPerRound),
			r.Objective, r.GapVsGlobal, r.SpeedupVsLP, r.WarmIterations, r.ColdIterations)
	}

	if *metrics {
		metricsReg.WritePrometheus(os.Stderr)
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pricebench:", err)
		os.Exit(1)
	}
}

// churnRounds drives one engine through a low-churn round sequence (2% of
// jobs replaced per round plus a few weight jitters) and returns the best
// mean per-round latency across reps, the final objective, and the final
// active job set. step abstracts over the LP and price cluster engines.
type clusterEngine interface {
	Upsert(cluster.Job)
	Remove(id int) bool
	Step(active []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error)
	Objective() float64
}

func clusterSequence(n int, rounds int, seed int64) (base []cluster.Job, play func(e clusterEngine) (nsPerRound int64, obj float64, final []cluster.Job)) {
	base = cluster.GenerateJobs(n, seed+2, 0.2)
	play = func(e clusterEngine) (int64, float64, []cluster.Job) {
		rng := rand.New(rand.NewSource(seed))
		live := make([]cluster.Job, len(base))
		copy(live, base)
		c := clusterFor(n)
		nextID := n
		// Untimed warm-up round.
		_, err := e.Step(live, c)
		die(err)
		var ns int64
		for round := 0; round < rounds; round++ {
			nChurn := int(math.Max(1, 0.02*float64(n)))
			for t := 0; t < nChurn; t++ {
				i := rng.Intn(len(live))
				nj := cluster.GenerateJobs(1, seed+int64(nextID), 0.2)[0]
				nj.ID = nextID
				nextID++
				live[i] = nj
			}
			for t := 0; t < nChurn; t++ {
				live[rng.Intn(len(live))].Weight = 0.5 + rng.Float64()*2
			}
			start := time.Now()
			_, err := e.Step(live, c)
			die(err)
			ns += time.Since(start).Nanoseconds()
		}
		return ns / int64(rounds), e.Objective(), live
	}
	return base, play
}

func clusterFor(n int) cluster.Cluster {
	g := float64(n) / 5
	return cluster.NewCluster(g, g, g)
}

// lpObjective converts the online engine's reported objective to the same
// alpha-fair max-min scale the price engine reports: both already report the
// min weighted ratio for maxmin, so they compare directly.
func benchClusterOnline(n, rounds, reps int, seed int64, runLP, runPrice bool) []record {
	var out []record
	_, play := clusterSequence(n, rounds, seed)
	c := clusterFor(n)

	var lpRec *record
	var finalJobs []cluster.Job
	if runLP {
		rec := record{Family: "cluster-online", Engine: "lp", Clients: n, Rounds: rounds}
		best := int64(math.MaxInt64)
		k := n / 100
		if k < 4 {
			k = 4
		}
		for r := 0; r < reps; r++ {
			eng, err := online.NewClusterEngine(c, online.MaxMinFairness, online.Options{K: k, Parallel: true}, lp.Options{})
			die(err)
			ns, _, live := play(eng)
			if ns < best {
				best = ns
			}
			if finalJobs == nil {
				finalJobs = live
			}
			// The online engine reports the k-partitioned objective; score
			// the composed allocation on the global metric instead.
			a, err := eng.Step(live, c)
			die(err)
			rec.Objective = price.MaxMinObjective(live, c, a)
		}
		rec.NsPerRound = best
		out = append(out, rec)
		lpRec = &out[len(out)-1]
	}

	if runPrice {
		rec := record{Family: "cluster-online", Engine: "price", Clients: n, Rounds: rounds}
		best := int64(math.MaxInt64)
		for r := 0; r < reps; r++ {
			eng, err := price.NewClusterEngine(c, price.MaxMinFairness,
				price.EngineOptions{Solver: price.Options{Seed: seed, Parallel: true, Obs: metricsObs}})
			die(err)
			ns, obj, live := play(eng)
			if ns < best {
				best = ns
			}
			if finalJobs == nil {
				finalJobs = live
			}
			st := eng.Stats()
			rec.Objective = obj
			rec.Residual = st.LastResidual
			rec.WarmRounds = st.WarmPriceRounds
			rec.WarmIterations = st.LastIterations
			if st.WarmPriceRounds > 0 {
				// Back out the cold first round assuming the final round's
				// iteration count is typical of the warm rounds.
				if cold := int(st.Iterations) - st.LastIterations*st.WarmPriceRounds; cold > 0 {
					rec.ColdIterations = cold
					rec.WarmIterations = (int(st.Iterations) - cold) / st.WarmPriceRounds
				}
			}
		}
		rec.NsPerRound = best
		if lpRec != nil && best > 0 {
			rec.SpeedupVsLP = float64(lpRec.NsPerRound) / float64(best)
		}
		out = append(out, rec)
	}

	// Global LP reference on the final round's jobs: the quality yardstick
	// both engines are gapped against.
	if finalJobs != nil {
		a, err := cluster.MaxMinFairness(finalJobs, c, lp.Options{})
		die(err)
		global := price.MaxMinObjective(finalJobs, c, a)
		for i := range out {
			out[i].GlobalObjective = global
			if global > 0 {
				out[i].GapVsGlobal = (global - out[i].Objective) / global
			}
		}
	}
	return out
}

// benchLBOnline replays shard load jitter through the LP POP balancer and
// the price engine; quality is the worst band deviation of the final round.
func benchLBOnline(n, rounds, reps int, seed int64, runLP, runPrice bool) []record {
	const nServers = 20
	play := func(step func(*lb.Instance) (*lb.Assignment, error)) (int64, float64) {
		inst := lb.NewInstance(n, nServers, 0.05, seed+3)
		a, err := step(inst)
		die(err)
		inst.Placement = a.Placed
		var ns int64
		for round := 0; round < rounds; round++ {
			inst.ShiftLoads(seed + int64(round)*101)
			start := time.Now()
			a, err = step(inst)
			die(err)
			ns += time.Since(start).Nanoseconds()
			inst.Placement = a.Placed
		}
		return ns / int64(rounds), a.MaxDeviation
	}

	var out []record
	var lpRec *record
	if runLP {
		rec := record{Family: "lb-online", Engine: "lp", Clients: n, Rounds: rounds}
		best := int64(math.MaxInt64)
		for r := 0; r < reps; r++ {
			eng, err := online.NewLBEngine(online.Options{K: 4, Parallel: true}, lp.Options{})
			die(err)
			ns, dev := play(eng.Step)
			if ns < best {
				best = ns
				rec.MaxDeviation = dev
				rec.Objective = -dev
			}
		}
		rec.NsPerRound = best
		out = append(out, rec)
		lpRec = &out[len(out)-1]
	}
	if runPrice {
		rec := record{Family: "lb-online", Engine: "price", Clients: n, Rounds: rounds}
		best := int64(math.MaxInt64)
		for r := 0; r < reps; r++ {
			eng, err := price.NewLBEngine(price.EngineOptions{Solver: price.Options{Seed: seed, Parallel: true, Obs: metricsObs}})
			die(err)
			ns, dev := play(eng.Step)
			st := eng.Stats()
			if ns < best {
				best = ns
				rec.MaxDeviation = dev
				rec.Objective = -dev
				rec.Residual = st.LastResidual
				rec.WarmRounds = st.WarmPriceRounds
				rec.WarmIterations = st.LastIterations
			}
		}
		rec.NsPerRound = best
		if lpRec != nil && best > 0 {
			rec.SpeedupVsLP = float64(lpRec.NsPerRound) / float64(best)
		}
		out = append(out, rec)
	}
	return out
}

// benchPriceScale runs the price engine alone at sizes far beyond what the
// LP is run at here: one cold solve, then one low-churn warm round, timing
// the warm round and recording both iteration counts.
func benchPriceScale(n, reps int, seed int64) record {
	rec := record{Family: "price-scale", Engine: "price", Clients: n, Rounds: 1}
	best := int64(math.MaxInt64)
	c := clusterFor(n)
	jobs := cluster.GenerateJobs(n, seed+2, 0.2)
	for r := 0; r < reps; r++ {
		eng, err := price.NewClusterEngine(c, price.MaxMinFairness,
			price.EngineOptions{Solver: price.Options{Seed: seed, Parallel: true, Obs: metricsObs}})
		die(err)
		_, err = eng.Step(jobs, c)
		die(err)
		cold := eng.Stats().LastIterations

		// 0.5% churn round rides the carried prices.
		live := make([]cluster.Job, len(jobs))
		copy(live, jobs)
		nChurn := int(math.Max(1, 0.005*float64(n)))
		fresh := cluster.GenerateJobs(nChurn, seed+7, 0.2)
		for i := range fresh {
			fresh[i].ID = n + i
			live[i] = fresh[i]
		}
		start := time.Now()
		_, err = eng.Step(live, c)
		die(err)
		ns := time.Since(start).Nanoseconds()
		st := eng.Stats()
		if ns < best {
			best = ns
			rec.ColdIterations = cold
			rec.WarmIterations = st.LastIterations
			rec.Residual = st.LastResidual
			rec.WarmRounds = st.WarmPriceRounds
			rec.Objective = eng.Objective()
		}
	}
	rec.NsPerRound = best
	return rec
}
