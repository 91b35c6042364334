package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPartitionCoversAllClients(t *testing.T) {
	for _, strat := range []Strategy{Random, PowerOfTwo, Skewed, RoundRobin} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			n, k := 103, 7
			load := func(i int) float64 { return float64(i % 13) }
			groups := Partition(n, k, strat, 5, load)
			if len(groups) != k {
				t.Fatalf("got %d groups", len(groups))
			}
			seen := make([]bool, n)
			for _, g := range groups {
				for _, i := range g {
					if seen[i] {
						t.Fatalf("client %d assigned twice", i)
					}
					seen[i] = true
				}
			}
			for i, s := range seen {
				if !s {
					t.Fatalf("client %d unassigned", i)
				}
			}
		})
	}
}

func TestPartitionBalanced(t *testing.T) {
	groups := Partition(100, 8, Random, 1, nil)
	for _, g := range groups {
		if len(g) < 12 || len(g) > 13 {
			t.Fatalf("unbalanced group size %d", len(g))
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	a := Partition(50, 4, Random, 99, nil)
	b := Partition(50, 4, Random, 99, nil)
	for p := range a {
		if len(a[p]) != len(b[p]) {
			t.Fatal("nondeterministic partition")
		}
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatal("nondeterministic partition")
			}
		}
	}
}

func TestPartitionKLargerThanN(t *testing.T) {
	groups := Partition(3, 10, Random, 1, nil)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 3 {
		t.Fatalf("assigned %d clients, want 3", total)
	}
}

func TestSkewedConcentratesLoad(t *testing.T) {
	n, k := 64, 4
	load := func(i int) float64 { return float64(i) }
	groups := Partition(n, k, Skewed, 1, load)
	sums := make([]float64, k)
	for p, g := range groups {
		for _, i := range g {
			sums[p] += load(i)
		}
	}
	// First chunk holds the largest loads under Skewed.
	if sums[0] <= sums[k-1] {
		t.Fatalf("skewed did not concentrate: %v", sums)
	}
}

func TestPowerOfTwoBalancesLoad(t *testing.T) {
	n, k := 400, 4
	rng := rand.New(rand.NewSource(2))
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = rng.Float64() * 10
	}
	load := func(i int) float64 { return loads[i] }

	sumsFor := func(strat Strategy) []float64 {
		groups := Partition(n, k, strat, 7, load)
		sums := make([]float64, k)
		for p, g := range groups {
			for _, i := range g {
				sums[p] += load(i)
			}
		}
		return sums
	}
	spread := func(s []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	if p2 := spread(sumsFor(PowerOfTwo)); p2 > spread(sumsFor(Skewed)) {
		t.Fatalf("power-of-two spread %g worse than skewed", p2)
	}
}

func TestGather(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	groups := [][]int{{3, 0}, {1, 2}}
	got := Gather(items, groups)
	if got[0][0] != "d" || got[0][1] != "a" || got[1][0] != "b" {
		t.Fatalf("gather wrong: %v", got)
	}
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestParallelMapRunsAll(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var count int64
		err := ParallelMap(8, parallel, func(p int) error {
			atomic.AddInt64(&count, 1)
			return nil
		})
		if err != nil || count != 8 {
			t.Fatalf("parallel=%v: err=%v count=%d", parallel, err, count)
		}
	}
}

// TestParallelMapBoundsConcurrency drives a map far wider than the worker
// pool and checks the peak number of simultaneously running bodies never
// exceeds GOMAXPROCS — the pool pulls indices from a counter instead of
// spawning one goroutine per part.
func TestParallelMapBoundsConcurrency(t *testing.T) {
	limit := int64(runtime.GOMAXPROCS(0))
	var inFlight, peak int64
	err := ParallelMap(64, true, func(p int) error {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > limit {
		t.Fatalf("peak concurrency %d exceeds GOMAXPROCS %d", peak, limit)
	}
}

// TestParallelMapFirstErrorByIndex pins the error-selection contract: when
// several parts fail, the error of the lowest-indexed failing part wins,
// regardless of completion order.
func TestParallelMapFirstErrorByIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	err := ParallelMap(16, true, func(p int) error {
		switch p {
		case 3:
			time.Sleep(5 * time.Millisecond) // finishes last
			return errLow
		case 11:
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-indexed part's error", err)
	}
}

func TestParallelMapPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := ParallelMap(4, true, func(p int) error {
		if p == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

type fakeClient struct{ loadv float64 }

func TestSplitClientsAlgorithm2(t *testing.T) {
	clients := []fakeClient{{8}, {1}, {1}, {1}}
	virtual := SplitClients(clients, 0.75, // allow up to 7 virtual clients
		func(c fakeClient) float64 { return c.loadv },
		func(c fakeClient) (fakeClient, fakeClient) {
			h := c.loadv / 2
			return fakeClient{h}, fakeClient{h}
		})
	if len(virtual) != 7 {
		t.Fatalf("got %d virtual clients, want 7", len(virtual))
	}
	// Total load preserved.
	total := 0.0
	perOrig := map[int]float64{}
	for _, vc := range virtual {
		total += vc.Client.loadv
		perOrig[vc.Orig] += vc.Client.loadv
	}
	if !approxEq(total, 11, 1e-12) {
		t.Fatalf("total load = %g, want 11", total)
	}
	if !approxEq(perOrig[0], 8, 1e-12) {
		t.Fatalf("client 0 load = %g, want 8", perOrig[0])
	}
	// The heavy client must have been split the most.
	count0 := 0
	for _, vc := range virtual {
		if vc.Orig == 0 {
			count0++
		}
	}
	if count0 < 3 {
		t.Fatalf("heavy client split only %d times", count0)
	}
}

func TestSplitClientsZeroT(t *testing.T) {
	clients := []fakeClient{{5}, {3}}
	virtual := SplitClients(clients, 0,
		func(c fakeClient) float64 { return c.loadv },
		func(c fakeClient) (fakeClient, fakeClient) {
			return fakeClient{c.loadv / 2}, fakeClient{c.loadv / 2}
		})
	if len(virtual) != 2 {
		t.Fatalf("t=0 should not split, got %d", len(virtual))
	}
}

func TestSplitClientsLoadConservedProperty(t *testing.T) {
	f := func(seed int64, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		clients := make([]fakeClient, n)
		want := 0.0
		for i := range clients {
			clients[i] = fakeClient{rng.Float64() * 100}
			want += clients[i].loadv
		}
		tv := float64(tRaw%150) / 100
		virtual := SplitClients(clients, tv,
			func(c fakeClient) float64 { return c.loadv },
			func(c fakeClient) (fakeClient, fakeClient) {
				return fakeClient{c.loadv / 2}, fakeClient{c.loadv / 2}
			})
		got := 0.0
		for _, vc := range virtual {
			got += vc.Client.loadv
		}
		return approxEq(got, want, 1e-9) && len(virtual) >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{K: 0}).Validate(); err == nil {
		t.Fatal("K=0 should fail")
	}
	if err := (Options{K: 2, SplitT: -1}).Validate(); err == nil {
		t.Fatal("negative SplitT should fail")
	}
	if err := (Options{K: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsSurface pins the POP knobs: a sixth field is a new
// configuration every one of the seven entry points has to honour or reject.
func TestOptionsSurface(t *testing.T) {
	want := []string{"K", "Strategy", "Seed", "Parallel", "SplitT"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exported Options fields = %v, want exactly %v", got, want)
	}
}

func halve(c fakeClient) (fakeClient, fakeClient) {
	return fakeClient{c.loadv / 2}, fakeClient{c.loadv / 2}
}

// runShape runs a spec with a sub-solver that returns its own part number.
func runShape(t *testing.T, spec Spec[fakeClient], opts Options) []Sub[fakeClient] {
	t.Helper()
	subs, parts, err := Run(spec, opts, func(s Sub[fakeClient]) (int, error) { return s.Part, nil })
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range subs {
		if parts[p] != p || s.Part != p || s.K != len(subs) || len(s.Clients) != len(s.Orig) {
			t.Fatalf("sub %d: result %d, Part %d, K %d of %d, %d clients / %d origins",
				p, parts[p], s.Part, s.K, len(subs), len(s.Clients), len(s.Orig))
		}
	}
	return subs
}

// TestRunClampsK pins the one k rule: min(K, clients, partitioned
// resources), every sub-problem non-empty, every client and every
// partitioned resource in exactly one of them — and a single empty
// sub-problem when there are no clients at all.
func TestRunClampsK(t *testing.T) {
	for _, tc := range []struct{ clients, resources, K, want int }{
		{clients: 10, K: 4, want: 4},
		{clients: 3, K: 8, want: 3},
		{clients: 10, resources: 2, K: 4, want: 2},
		{clients: 2, resources: 5, K: 4, want: 2},
		{clients: 10, resources: 7, K: 1, want: 1},
		{clients: 0, resources: 3, K: 4, want: 1},
	} {
		spec := Spec[fakeClient]{Clients: make([]fakeClient, tc.clients), Resources: tc.resources}
		for i := range spec.Clients {
			spec.Clients[i].loadv = float64(i)
		}
		for _, parallel := range []bool{false, true} {
			subs := runShape(t, spec, Options{K: tc.K, Seed: 3, Parallel: parallel})
			if len(subs) != tc.want {
				t.Fatalf("%+v: %d sub-problems", tc, len(subs))
			}
			var clients, resources []int
			for _, s := range subs {
				if tc.clients > 0 && len(s.Clients) == 0 || tc.resources > 0 && len(s.Resources) == 0 {
					t.Fatalf("%+v: empty sub-problem %+v", tc, s)
				}
				for pos, i := range s.Orig {
					if s.Clients[pos] != spec.Clients[i] {
						t.Fatalf("%+v: client %d of part %d is not Clients[%d]", tc, pos, s.Part, i)
					}
				}
				clients = append(clients, s.Orig...)
				resources = append(resources, s.Resources...)
			}
			slices.Sort(clients)
			slices.Sort(resources)
			for i, c := range clients {
				if c != i {
					t.Fatalf("%+v: clients dealt = %v", tc, clients)
				}
			}
			for i, r := range resources {
				if r != i {
					t.Fatalf("%+v: resources dealt = %v", tc, resources)
				}
			}
			if len(clients) != tc.clients || len(resources) != tc.resources {
				t.Fatalf("%+v: dealt %d clients, %d resources", tc, len(clients), len(resources))
			}
		}
	}
}

// TestRunMatchesPartition: without a Groups hook the sub-problems are exactly
// the seeded Partition over the client loads, for every strategy.
func TestRunMatchesPartition(t *testing.T) {
	clients := make([]fakeClient, 41)
	for i := range clients {
		clients[i].loadv = float64(i*7%13) + 1
	}
	spec := Spec[fakeClient]{Clients: clients, Load: func(c fakeClient) float64 { return c.loadv }}
	for _, strat := range []Strategy{Random, PowerOfTwo, Skewed, RoundRobin} {
		subs := runShape(t, spec, Options{K: 5, Seed: 11, Strategy: strat})
		want := Partition(len(clients), 5, strat, 11, func(i int) float64 { return clients[i].loadv })
		for p, s := range subs {
			if !slices.Equal(s.Orig, want[p]) {
				t.Fatalf("%v part %d: %v, Partition says %v", strat, p, s.Orig, want[p])
			}
		}
	}
}

// TestRunGroupsHook: caller-supplied groups see the clamped k, fix the number
// of sub-problems (resources are dealt over what the hook returned), and are
// not consulted when there is nothing to group.
func TestRunGroupsHook(t *testing.T) {
	var sawK int
	spec := Spec[fakeClient]{
		Clients:   make([]fakeClient, 6),
		Resources: 4,
		Groups: func(k int) [][]int {
			sawK = k
			return [][]int{{5, 0}, {1, 2, 3, 4}}
		},
	}
	subs := runShape(t, spec, Options{K: 9})
	if sawK != 4 {
		t.Fatalf("hook saw k = %d, want min(9, 6 clients, 4 resources)", sawK)
	}
	if len(subs) != 2 || !slices.Equal(subs[0].Orig, []int{5, 0}) || !slices.Equal(subs[1].Resources, []int{1, 3}) {
		t.Fatalf("subs = %+v", subs)
	}
	spec.Clients = nil
	spec.Groups = func(int) [][]int { panic("Groups called without clients") }
	if subs := runShape(t, spec, Options{K: 9}); len(subs) != 1 {
		t.Fatalf("%d sub-problems without clients", len(subs))
	}
}

// TestRunSplitsClients: with SplitT and a splitter, sub-problems hold
// Algorithm 2's virtual clients, Orig maps each back to its original, and
// load is conserved per original; k clamps to the virtual count.
func TestRunSplitsClients(t *testing.T) {
	spec := Spec[fakeClient]{
		Clients: []fakeClient{{8}, {1}, {1}},
		Load:    func(c fakeClient) float64 { return c.loadv },
		Split:   halve,
	}
	subs := runShape(t, spec, Options{K: 5, SplitT: 1, Seed: 2})
	if len(subs) != 5 {
		t.Fatalf("%d sub-problems, want 5 of the 6 virtual clients' worth", len(subs))
	}
	perOrig := make([]float64, 3)
	virtual := 0
	for _, s := range subs {
		for i, c := range s.Clients {
			perOrig[s.Orig[i]] += c.loadv
			virtual++
		}
	}
	if virtual != 6 || !slices.Equal(perOrig, []float64{8, 1, 1}) {
		t.Fatalf("%d virtual clients, load per original %v", virtual, perOrig)
	}
}

// TestRunRejectsOptions: the runner is the one place options are checked.
// SplitT on a spec that cannot split is an error, never ignored.
func TestRunRejectsOptions(t *testing.T) {
	splitter := Spec[fakeClient]{Clients: make([]fakeClient, 4), Load: func(c fakeClient) float64 { return c.loadv }, Split: halve}
	plain := Spec[fakeClient]{Clients: make([]fakeClient, 4)}
	grouped := splitter
	grouped.Groups = func(k int) [][]int { return [][]int{{0, 1, 2, 3}} }
	for _, tc := range []struct {
		name string
		spec Spec[fakeClient]
		opts Options
		want string
	}{
		{"K=0", splitter, Options{K: 0}, "K must be ≥ 1"},
		{"SplitT<0", splitter, Options{K: 2, SplitT: -1}, "SplitT must be ≥ 0"},
		{"no splitter", plain, Options{K: 2, SplitT: 0.5}, "does not split clients"},
		{"groups exclude split", grouped, Options{K: 2, SplitT: 0.5}, "does not split clients"},
	} {
		_, _, err := Run(tc.spec, tc.opts, func(Sub[fakeClient]) (int, error) {
			t.Fatalf("%s: sub-solver ran", tc.name)
			return 0, nil
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRunFirstErrorByPart: a failing map step returns the lowest failing
// part's error and no results, serial or parallel.
func TestRunFirstErrorByPart(t *testing.T) {
	spec := Spec[fakeClient]{Clients: make([]fakeClient, 16)}
	for _, parallel := range []bool{false, true} {
		subs, parts, err := Run(spec, Options{K: 8, Parallel: parallel}, func(s Sub[fakeClient]) (int, error) {
			if s.Part == 2 || s.Part == 6 {
				return 0, fmt.Errorf("part %d failed", s.Part)
			}
			return s.Part, nil
		})
		if err == nil || err.Error() != "part 2 failed" || subs != nil || parts != nil {
			t.Fatalf("parallel=%v: subs %v, results %v, err %v", parallel, subs, parts, err)
		}
	}
}
