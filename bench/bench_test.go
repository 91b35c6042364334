package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pop/internal/cluster"
	"pop/internal/lp"
	"pop/internal/obs"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the metric and
// workload tables the program prints from.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !bytes.Contains(readme, []byte("`"+m.Name+"`")) {
			t.Errorf("README.md does not define metric %s", m.Name)
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}

var tableRow = regexp.MustCompile(`^  (\S+)\s+(\S+)\s+(\S+)`)

// TestQuickRun runs the whole benchmark at the quick sizes, traced, and
// checks what it prints: every metric of BENCHMARK.json exactly once per
// workload with its unit, no failed rounds, machine-readable results, and a
// trace whose spans nest the way README says they do.
func TestQuickRun(t *testing.T) {
	spec := readBenchmarkJSON(t)
	var out bytes.Buffer
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	runs, err := run(config{seed: 1, quick: true, trace: true, traceOut: tracePath, out: &out})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if len(runs) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(runs), len(workloads))
	}

	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	seen := map[string]map[string]int{}
	section := ""
	var results []result
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			section = strings.TrimSuffix(strings.Fields(line)[1], ":")
			seen[section] = map[string]int{}
		case strings.HasPrefix(line, "{"):
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		case section != "":
			if m := tableRow.FindStringSubmatch(line); m != nil {
				if unit, ok := units[m[1]]; ok {
					seen[section][m[1]]++
					if m[3] != unit {
						t.Errorf("%s/%s printed with unit %q, BENCHMARK.json says %q", section, m[1], m[3], unit)
					}
				}
			}
		}
	}
	for _, w := range workloads {
		for name := range units {
			if n := seen[w.name][name]; n != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", w.name, name, n)
			}
		}
	}

	if len(results) != len(workloads) {
		t.Fatalf("%d result lines, want %d", len(results), len(workloads))
	}
	for i, r := range results {
		if r.Workload != workloads[i].name || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("result %d: %+v", i, r)
		}
		if len(r.Metrics) != len(perLayer) {
			t.Errorf("%s: traced result carries %d metrics, want the %d per-layer ones", r.Workload, len(r.Metrics), len(perLayer))
		}
	}
	for _, wr := range runs {
		for name, v := range wr.endToEnd() {
			if !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wr.w.name, name, v)
			}
		}
	}

	events, err := obs.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]obs.Event{}
	for _, e := range events {
		byName[e.Name] = append(byName[e.Name], e)
	}
	inside := func(child, parent string) {
		t.Helper()
		if len(byName[child]) == 0 {
			t.Errorf("trace has no %s span", child)
		}
		for _, c := range byName[child] {
			ok := false
			for _, p := range byName[parent] {
				ok = ok || p.Contains(c)
			}
			if !ok {
				t.Errorf("a %s span at %.0fus is in no %s span", child, c.TS, parent)
				return
			}
		}
	}
	inside("shard.handler", "shard.step")
	inside("bench.round", "bench.pass")
	inside("bench.setup", "bench.pass")
	inside("te.solvepop", "bench.pass")
	inside("lb.solvepop", "bench.pass")
	inside("engine.direct_step", "bench.pass")
	inside("json.replay", "bench.pass")
	inside("core.partition", "bench.pass")
	// Every timed round of a serve workload holds exactly one shard.step.
	rounds := 0
	for _, r := range byName["bench.round"] {
		for _, s := range byName["shard.step"] {
			if r.Contains(s) {
				rounds++
			}
		}
	}
	if want := 2 * quickSizes.ServeRounds; rounds != want {
		t.Errorf("%d shard.step spans sit inside a bench.round, want %d", rounds, want)
	}
}

// TestDriverContract runs one workload the way the benchmark driver does
// and checks the last line of output against the contract.
func TestDriverContract(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		cfg := config{workload: "batch-lb", seed: 3, seconds: 0.01, quick: true, trace: traced,
			traceOut: filepath.Join(t.TempDir(), "trace.json"), out: &out}
		if _, err := run(cfg); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if len(last) != 4 {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, m := range want {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s = %+v (present %v)", traced, m.Name, got, ok)
			}
		}
	}
	if _, err := run(config{workload: "no-such", out: &bytes.Buffer{}}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestVerifyCatchesCorruptAllocation corrupts a correct allocation in the
// ways the serve workloads must catch.
func TestVerifyCatchesCorruptAllocation(t *testing.T) {
	jobs := newPopulation(1, 60, 0.01).active
	pool := servePool(len(jobs))
	fresh := func() *cluster.Allocation {
		a, err := cluster.MaxMinFairness(jobs, pool, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if err := verifyClusterAllocation(jobs, pool, fresh()); err != nil {
		t.Fatalf("correct allocation rejected: %v", err)
	}
	corruptions := map[string]func(a *cluster.Allocation){
		"over capacity": func(a *cluster.Allocation) {
			for i := range a.X {
				a.X[i][2] = 1
			}
		},
		"over time budget": func(a *cluster.Allocation) { a.X[0] = []float64{0.6, 0.6, 0.6} },
		"missing client":   func(a *cluster.Allocation) { a.X, a.EffThr = a.X[1:], a.EffThr[1:] },
		"nan throughput":   func(a *cluster.Allocation) { a.EffThr[3] = math.NaN() },
		"short row":        func(a *cluster.Allocation) { a.X[5] = a.X[5][:2] },
	}
	for name, corrupt := range corruptions {
		a := fresh()
		corrupt(a)
		if err := verifyClusterAllocation(jobs, pool, a); err == nil {
			t.Errorf("%s: corrupted allocation accepted", name)
		}
	}
	if err := verifyClusterAllocation(jobs, pool, nil); err == nil {
		t.Error("nil allocation accepted")
	}
}

// TestDriftNamesCounter checks the determinism guard.
func TestDriftNamesCounter(t *testing.T) {
	wr := &workloadRun{w: workloads[0], passes: []*passResult{
		{counters: []counter{{"lp.pivots", 10}, {"milp.nodes", 4}}},
		{counters: []counter{{"lp.pivots", 10}, {"milp.nodes", 4}}},
	}}
	if err := wr.drift(); err != nil {
		t.Fatalf("identical passes: %v", err)
	}
	wr.passes[1].counters[1].value = 5
	err := wr.drift()
	if err == nil || !strings.Contains(err.Error(), "milp.nodes") {
		t.Fatalf("drift = %v, want an error naming milp.nodes", err)
	}
}

func TestSelfTimes(t *testing.T) {
	span := func(name string, ts, dur float64) obs.Event {
		return obs.Event{Name: name, Phase: "X", TS: ts, Dur: dur}
	}
	// step [0,100) holds two overlapping handlers [10,60) and [20,90): they
	// cover 80 of its 100, so its self time is 20.
	got := selfTimes([]obs.Event{
		span("handler", 20, 70), span("step", 0, 100), span("handler", 10, 50),
		{Name: "marker", Phase: "i", TS: 5},
	})
	want := map[string][2]float64{"step": {0.1, 0.02}, "handler": {0.12, 0.12}}
	if len(got) != 2 {
		t.Fatalf("got %+v", got)
	}
	for _, st := range got {
		w := want[st.name]
		if math.Abs(st.totalMs-w[0]) > 1e-12 || math.Abs(st.self-w[1]) > 1e-12 {
			t.Errorf("%s: total %g self %g, want %g %g", st.name, st.totalMs, st.self, w[0], w[1])
		}
	}
}

func TestStats(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) is
	// [3.5, 13.5, 31.0]; statistics.median is 13.5.
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := iqrShare(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %g, want %g", got, want)
	}
	if got := median(xs); got != 13.5 {
		t.Errorf("median = %g", got)
	}
	if got := p90(xs); got != 37 {
		t.Errorf("p90 = %g", got)
	}
	// quantiles([5, 1, 9, 2], n=4) is [1.25, 3.5, 8.0]; of [3, 1] it is
	// [0.5, 2.0, 3.5] (the exclusive method extrapolates).
	if got, want := iqrShare([]float64{5, 1, 9, 2}), (8.0-1.25)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare of four = %g, want %g", got, want)
	}
	if got, want := iqrShare([]float64{3, 1}), (3.5-0.5)/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare of two = %g, want %g", got, want)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare of one value = %g", got)
	}
	best := bestRounds([]*passResult{{roundMs: []float64{3, 9, 5}}, {roundMs: []float64{4, 2, 6}}})
	if best[0] != 3 || best[1] != 2 || best[2] != 5 {
		t.Errorf("bestRounds = %v", best)
	}
}

func TestCommittedRefs(t *testing.T) {
	entries, err := committedRefs()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(references) {
		t.Fatalf("refs.json has %d entries, want one per reference (%d)", len(entries), len(references))
	}
	for i, r := range references {
		if e := entries[i]; e.Ref != r.name || e.Seed != 1 || e.Key != r.key(fullSizes) || !(e.Optimum > 0) {
			t.Errorf("refs.json entry %d = %+v, want %s at seed 1 with key %q", i, e, r.name, r.key(fullSizes))
		}
	}
	// Quick sizes are not committed: the lookup computes.
	if _, committed, err := clusterRef.lookup(1, quickSizes); err != nil || committed {
		t.Errorf("quick-size lookup: committed=%v err=%v", committed, err)
	}
}
