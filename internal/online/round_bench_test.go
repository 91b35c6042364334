package online

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// roundSeq is an engine loaded with one family's clients, plus what a round
// does to it before the solve.
type roundSeq struct {
	eng   *ClusterEngine
	churn func(rng *rand.Rand, frac float64) // change frac of the clients' data
}

// roundFamilies are the round sequences of the policies the online engine
// serves: cluster job churn, a capacity-jitter sequence whose rhs-only
// deltas ride the dual simplex, and weight churn through the pair-block
// space-sharing policy. Churn is stationary (weights and capacities jitter
// around their first value), so a round costs the same whatever b.N is.
var roundFamilies = []struct {
	name  string
	k     int
	seed  int64 // of the churn stream
	fracs []float64
	start func(tb testing.TB, opts Options) roundSeq
}{
	{"cluster", 8, 1, []float64{0.05, 0.25, 1}, func(tb testing.TB, opts Options) roundSeq {
		// 70% of touches change a weight, the rest replace the job.
		return clusterSeq(tb, MaxMinFairness, opts, 192, 48, 0.2, 0.7)
	}},
	{"cluster-cap", 8, 12, []float64{1}, func(tb testing.TB, opts Options) roundSeq {
		seq := clusterSeq(tb, MinMakespan, opts, 192, 48, 0.2, 1)
		seq.churn = func(rng *rand.Rand, _ float64) {
			jit := func() float64 { return 48 * (0.8 + 0.4*rng.Float64()) }
			seq.eng.SetCluster(cluster.NewCluster(jit(), jit(), jit()))
		}
		return seq
	}},
	{"spacesharing", 4, 24, []float64{0.05, 0.25, 1}, func(tb testing.TB, opts Options) roundSeq {
		return clusterSeq(tb, SpaceSharing, opts, 96, 24, 0.1, 1)
	}},
}

func touches(frac float64, n int) int { return max(1, int(frac*float64(n))) }

// clusterSeq loads nJobs jobs into a cluster engine over gpus GPUs of each
// type; a touch re-weights a job with probability pWeight and otherwise
// replaces it with a fresh arrival.
func clusterSeq(tb testing.TB, policy ClusterPolicy, opts Options, nJobs int, gpus, multiGPU, pWeight float64) roundSeq {
	e, err := NewClusterEngine(cluster.NewCluster(gpus, gpus, gpus), policy, opts)
	if err != nil {
		tb.Fatal(err)
	}
	live := cluster.GenerateJobs(nJobs, 3, multiGPU)
	for _, j := range live {
		e.Upsert(j)
	}
	nextID := nJobs
	return roundSeq{eng: e, churn: func(rng *rand.Rand, frac float64) {
		for t := touches(frac, nJobs); t > 0; t-- {
			i := rng.Intn(nJobs)
			if rng.Float64() < pWeight {
				live[i].Weight = 0.5 + rng.Float64()*2
			} else {
				e.Remove(live[i].ID)
				live[i] = cluster.GenerateJobs(1, int64(1+nextID), multiGPU)[0]
				live[i].ID = nextID
				nextID++
			}
			e.Upsert(live[i])
		}
	}}
}

// BenchmarkOnlineRound times one round of every family at each dirty
// fraction (the share of clients whose data changes per round), on the
// persistent-model path (warm: mutate in place, re-solve from the last basis
// or by dual simplex) and on the baseline it replaces (cold: MarkAllDirty
// before every round, so every sub-problem is rebuilt and solved from
// scratch). The churn itself
// is not timed. That the two agree on every objective is the job of the
// *MatchesColdFullSolve tests, not of this benchmark.
func BenchmarkOnlineRound(b *testing.B) {
	for _, fam := range roundFamilies {
		for _, frac := range fam.fracs {
			for _, mode := range []string{"warm", "cold"} {
				b.Run(fmt.Sprintf("%s/dirty=%g/%s", fam.name, frac, mode), func(b *testing.B) {
					cold := mode == "cold"
					seq := fam.start(b, Options{K: fam.k})
					rng := rand.New(rand.NewSource(fam.seed))
					round := func() {
						if cold {
							seq.eng.MarkAllDirty()
						}
						if err := seq.eng.Solve(); err != nil {
							b.Fatal(err)
						}
					}
					round() // both paths reach steady state untimed
					s0 := seq.eng.Stats()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						seq.churn(rng, frac)
						b.StartTimer()
						round()
					}
					s, n := seq.eng.Stats(), float64(b.N)
					b.ReportMetric(float64(s.Iterations-s0.Iterations)/n, "pivots/round")
					b.ReportMetric(float64(s.DualPivots-s0.DualPivots)/n, "dualpivots/round")
					b.ReportMetric(float64(s.WarmHits-s0.WarmHits)/n, "warmhits/round")
				})
			}
		}
	}
}

// TestTraceNesting: an engine with Options.Obs set emits spans that nest
// lp.solve ⊂ online.round ⊂ the caller's own span by wall-clock containment,
// checked on a Chrome trace-event file written and read back.
func TestTraceNesting(t *testing.T) {
	tr := obs.NewTrace()
	o := &obs.Observer{Trace: tr}
	fam := roundFamilies[0]

	runSpan := o.Span("run")
	seq := fam.start(t, Options{K: fam.k, Obs: o})
	rng := rand.New(rand.NewSource(fam.seed))
	for round := 0; round < 3; round++ {
		if round > 0 {
			seq.churn(rng, 0.25)
		}
		if err := seq.eng.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	runSpan.End()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var run *obs.Event
	var rounds, solves []obs.Event
	for i := range evs {
		switch evs[i].Name {
		case "run":
			run = &evs[i]
		case "online.round":
			rounds = append(rounds, evs[i])
		case "lp.solve":
			solves = append(solves, evs[i])
		}
	}
	if run == nil {
		t.Fatal("trace has no run span")
	}
	if len(rounds) != 3 {
		t.Fatalf("trace has %d online.round spans, want 3", len(rounds))
	}
	if len(solves) == 0 {
		t.Fatal("trace has no lp.solve spans")
	}

	for _, r := range rounds {
		if !run.Contains(r) {
			t.Fatalf("online.round [%g,%g) escapes run [%g,%g)", r.TS, r.TS+r.Dur, run.TS, run.TS+run.Dur)
		}
	}
	for _, s := range solves {
		inRound := false
		for _, r := range rounds {
			if r.Contains(s) {
				inRound = true
				break
			}
		}
		if !inRound {
			t.Fatalf("lp.solve at ts=%g dur=%g is inside no online.round", s.TS, s.Dur)
		}
	}
}
