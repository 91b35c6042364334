package price

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pop/internal/cluster"
)

// oracleBestResponse is the max-min best response by exhaustive
// enumeration: every singleton and pair support evaluated, the best value
// kept. It is a frozen copy of clusterDomain.enumerate, the reference that
// BestResponse must match bit for bit whichever path answers.
func oracleBestResponse(d *clusterDomain, j int, price []float64, out []float64) {
	r := d.r
	t := d.t[j*r : (j+1)*r]
	tPow := d.tPow[j*r : (j+1)*r]
	tUtil := d.tUtil[j*r : (j+1)*r]
	z := d.z[j]
	zr := d.zRoot[j]
	for i := range out {
		out[i] = 0
	}
	// φ(u) − cost at the interior stationary point φ'(u) = s reduces to
	// (α/(1−α))·u·s − K, so candidates compare without evaluating powers.
	const scale = maxMinAlpha / (1 - maxMinAlpha)
	bestVal := math.Inf(-1)
	bestA, bestB := -1, -1
	var xA, xB float64

	for i := 0; i < r; i++ {
		if t[i] <= 0 {
			continue
		}
		ci := z * price[i]
		// Interior singleton demand: x = (c_i/t_i)^(−1/α)/t_i, factored as
		// z^(−1/α)·p_i^(−1/α)·t_i^(1/α−1).
		x := zr * d.pRoot[i] * tPow[i]
		var v float64
		if x < 1 {
			if x <= 0 {
				continue
			}
			// v = (α/(1−α))·u·(c_i/t̃_i) at stationarity, u = t̃_i·x.
			v = scale * x * ci
		} else {
			// Clamped to the full time budget: v = t̃_i^(1−α)/(1−α) − c_i.
			x = 1
			v = tUtil[i]*d.utilScale - ci
		}
		if v > bestVal {
			bestVal, bestA, bestB, xA, xB = v, i, -1, x, 0
		}
	}
	dtRoot := d.dtRoot[j*d.npairs : (j+1)*d.npairs]
	pi := 0
	for a := 0; a < r; a++ {
		ca := z * price[a]
		for b := a + 1; b < r; b++ {
			rt := dtRoot[pi] * d.pairRoot[pi]
			pi++
			if rt == 0 || t[a] <= 0 || t[b] <= 0 {
				continue
			}
			cb := z * price[b]
			tb := d.sigma * t[b]
			dt, dc := d.sigma*t[a]-tb, ca-cb
			if dt == 0 || dc == 0 || (dt > 0) != (dc > 0) {
				continue // degenerate or dominated: singletons cover it
			}
			s := dc / dt
			u := zr * rt
			xa := (u - tb) / dt
			if xa <= 0 || xa >= 1 {
				continue // boundary cases are the singleton candidates
			}
			// v = (α/(1−α))·u·s − K with K = c_b − t̃_b·s.
			if v := scale*u*s - (cb - tb*s); v > bestVal {
				bestVal, bestA, bestB, xA, xB = v, a, b, xa, 1-xa
			}
		}
	}
	if bestA >= 0 {
		out[bestA] = z * xA
		if bestB >= 0 {
			out[bestB] = z * xB
		}
	}
}

// perClient is the max-min market with the chunk kernel hidden, so Solve
// runs its generic per-client loop and fold over br; the rest of the market
// (PrepareIteration, the elasticity) is the production one. With br the
// enumeration oracle it is the reference market; with
// (*clusterDomain).BestResponse it is Solve's pass before the kernel.
type perClient struct {
	d  *clusterDomain
	br func(d *clusterDomain, j int, price, out []float64)
}

func (p perClient) Dims() (int, int)                         { return p.d.Dims() }
func (p perClient) Capacity(out []float64)                   { p.d.Capacity(out) }
func (p perClient) DemandHint() float64                      { return p.d.DemandHint() }
func (p perClient) PrepareIteration(price []float64)         { p.d.PrepareIteration(price) }
func (p perClient) ScaleElasticity() float64                 { return p.d.ScaleElasticity() }
func (p perClient) BestResponse(j int, price, out []float64) { p.br(p.d, j, price, out) }

func enumerating(d *clusterDomain) perClient { return perClient{d, oracleBestResponse} }
func certifying(d *clusterDomain) perClient  { return perClient{d, (*clusterDomain).BestResponse} }

// brMarket builds the max-min market of the given clients, one throughput
// row and scale each, over one GPU of each type.
func brMarket(thr [][]float64, scales []float64) *clusterDomain {
	jobs := make([]cluster.Job, len(thr))
	for j := range thr {
		jobs[j] = cluster.Job{ID: j, Throughput: thr[j], Weight: 1, Scale: scales[j], NumSteps: 1}
	}
	caps := make([]float64, len(thr[0]))
	for i := range caps {
		caps[i] = 1
	}
	return oneShotDomain(jobs, cluster.Cluster{NumGPUs: caps})
}

// cheapest is client j's type of lowest price per unit throughput and the
// interior demand the closed form puts there, whether or not the
// certificate holds. PrepareIteration(price) must have run.
func cheapest(d *clusterDomain, j int, price []float64) (int, float64) {
	r := d.r
	t := d.t[j*r : (j+1)*r]
	best := -1
	for i, ti := range t {
		if ti > 0 && (best < 0 || price[i]/ti < price[best]/t[best]) {
			best = i
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, d.zRoot[j] * d.pRoot[best] * d.tPow[j*r+best]
}

// atBudget rescales price uniformly so that client j's interior demand on
// its cheapest type lands at 1 − gap: interior demand scales as p^(−1/α).
func atBudget(d *clusterDomain, j int, price []float64, gap float64) []float64 {
	d.PrepareIteration(price)
	best, x := cheapest(d, j, price)
	if best < 0 {
		return price
	}
	f := math.Pow(x/(1-gap), maxMinAlpha)
	out := make([]float64, len(price))
	for i, p := range price {
		out[i] = p * f
	}
	return out
}

// sameBestResponse checks every client of d at price against the oracle,
// bit for bit and over a dirty output buffer, then runs it alone through
// the chunk kernel and checks the partial demands and the averaged row it
// leaves against BestResponse plus the generic fold. It returns whether
// each client was answered by the certificate.
func sameBestResponse(t *testing.T, d *clusterDomain, price []float64) []bool {
	t.Helper()
	d.PrepareIteration(price)
	r := d.r
	got := make([]float64, r)
	want := make([]float64, r)
	fast := make([]bool, d.n)
	// The kernel adds into running partial demands and averages: start
	// both from earlier iterates (non-negative, as in Solve).
	const gamma = 0.37
	acc, wantAcc := make([]float64, r), make([]float64, r)
	avg, wantAvg := make([]float64, d.n*r), make([]float64, d.n*r)
	for k := range avg {
		avg[k] = float64(k%3) * 0.25
	}
	copy(wantAvg, avg)
	for j := 0; j < d.n; j++ {
		for i := range got {
			got[i] = math.NaN()
		}
		d.BestResponse(j, price, got)
		oracleBestResponse(d, j, price, want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("client %d (t %v, z %v) at price %v: BestResponse %v, enumeration %v",
					j, d.t[j*r:(j+1)*r], d.z[j], price, got, want)
			}
		}
		_, _, fast[j] = d.certifiedSingleton(j, price)

		for i := range acc {
			acc[i] = float64(i) * 0.5
		}
		copy(wantAcc, acc)
		foldResponse(got, wantAcc, wantAvg[j*r:(j+1)*r], gamma)
		for i := range got {
			got[i] = math.NaN() // the kernel's scratch
		}
		enumerated := d.BestResponses(j, j+1, price, gamma, acc, avg, got)
		if enumerated > 1 || (enumerated == 0) != fast[j] {
			t.Fatalf("client %d: kernel enumerated %d, certified %v", j, enumerated, fast[j])
		}
		for i := range acc {
			if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) ||
				math.Float64bits(avg[j*r+i]) != math.Float64bits(wantAvg[j*r+i]) {
				t.Fatalf("client %d (t %v, z %v) at price %v: kernel acc %v avg %v, per-client fold acc %v avg %v",
					j, d.t[j*r:(j+1)*r], d.z[j], price, acc, avg[j*r:(j+1)*r], wantAcc, wantAvg[j*r:(j+1)*r])
			}
		}
	}
	return fast
}

func TestBestResponseMatchesEnumeration(t *testing.T) {
	thr3 := []float64{1.3, 2.9, 4.4}
	p3 := []float64{1, 2.1, 3.7}  // type 1 is cheapest per throughput
	pWide := []float64{3, 2.1, 8} // type 1, by a factor of 2.5 or more
	thr5 := []float64{1, 2.5, 0.7, 3.1, 1.9}
	p5 := []float64{1.1, 2.3, 0.9, 3.5, 1.7} // type 4 is
	// tieTo prices type k at type i's price per throughput times 1 + rel.
	tieTo := func(p, thr []float64, k, i int, rel float64) []float64 {
		p = append([]float64(nil), p...)
		p[k] = p[i] * thr[k] / thr[i] * (1 + rel)
		return p
	}
	for _, tc := range []struct {
		name  string
		thr   []float64
		price func(d *clusterDomain) []float64
		fast  bool // whether the certificate answers client 0
	}{
		{"r1/interior", []float64{2}, at(0.5, 1), true},
		{"r1/clamped", []float64{2}, at(1.5, 1), false},
		{"r1/zero", []float64{0}, fixed(1), false},
		{"r2/interior", []float64{1, 3}, at(0.5, 1, 2), true},
		{"r3/interior", thr3, at(0.5, p3...), true},
		{"r3/clamped", thr3, at(1.5, p3...), false},
		{"r4/interior", []float64{1, 2, 3, 4}, at(0.5, 1, 2.5, 3.2, 4.1), true},
		{"r5/interior", thr5, at(0.5, p5...), true},
		{"r5/clamped", thr5, at(1.5, p5...), false},
		{"r3/zero-throughputs", []float64{0, 2.9, 0}, at(0.5, p3...), true},
		{"r3/all-zero", []float64{0, 0, 0}, fixed(p3...), false},
		{"r3/equal-prices", thr3, at(0.5, 1, 1, 1), true},
		{"r3/equal-ratios", thr3, at(0.5, thr3...), false},
		{"r3/ratio+1e-12", thr3, at(0.5, tieTo(p3, thr3, 2, 1, 1e-12)...), false},
		{"r3/ratio-1e-12", thr3, at(0.5, tieTo(p3, thr3, 2, 1, -1e-12)...), false},
		{"r5/ratio+1e-12", thr5, at(0.5, tieTo(p5, thr5, 1, 4, 1e-12)...), false},
		{"r3/ratio+1e-7", thr3, at(0.5, tieTo(p3, thr3, 2, 1, 1e-7)...), false},
		{"r3/ratio+1e-4", thr3, at(0.5, tieTo(p3, thr3, 2, 1, 1e-4)...), true},
		{"r3/budget-1e-12", thr3, at(1-1e-12, p3...), false},
		{"r3/budget-1e-9", thr3, at(1-1e-9, p3...), false},
		{"r3/budget-2eta", thr3, at(1-2*certEta, p3...), true},
		// Wide margins pass the face check at 1 − x = 1e-5, so η decides.
		{"r3/budget-1e-5-wide", thr3, at(1-1e-5, pWide...), false},
		{"r3/budget-2eta-wide", thr3, at(1-2*certEta, pWide...), true},
		// A margin that beats δ for singletons but not near the budget.
		{"r3/ratio+1e-5-x0.99", thr3, at(0.99, tieTo(p3, thr3, 2, 1, 1e-5)...), false},
		{"r3/ratio+1e-5-x0.5", thr3, at(0.5, tieTo(p3, thr3, 2, 1, 1e-5)...), true},
		{"r5/budget-1e-12", thr5, at(1-1e-12, p5...), false},
		{"r3/prices-1e16", thr3, fixed(1e16, 1.5e16, 2e16), true},
		{"r3/prices-1e-16", thr3, fixed(1e-16, 1.5e-16, 2e-16), false},
		{"r3/prices-1e±16", thr3, fixed(1e-16, 1, 1e16), false},
		{"r3/prices-1e32", thr3, fixed(1e32, 2e32, 4e32), true},
	} {
		for _, z := range []float64{1, 2, 4} {
			// The second client, of scale 1, makes the total scale 2, 3 or
			// 5: the equal-share factor sigma is 1 only in the first.
			d := brMarket([][]float64{tc.thr, ones(len(tc.thr))}, []float64{z, 1})
			price := tc.price(d)
			fast := sameBestResponse(t, d, price)
			if fast[0] != tc.fast {
				t.Errorf("%s, z=%g: certified %v, want %v", tc.name, z, fast[0], tc.fast)
			}
		}
	}
}

// at prices the market at relative prices p, scaled so that client 0's
// interior demand on its cheapest type is x.
func at(x float64, p ...float64) func(*clusterDomain) []float64 {
	return func(d *clusterDomain) []float64 { return atBudget(d, 0, p, 1-x) }
}

func fixed(p ...float64) func(*clusterDomain) []float64 {
	return func(*clusterDomain) []float64 { return p }
}

func ones(r int) []float64 {
	v := make([]float64, r)
	for i := range v {
		v[i] = 1
	}
	return v
}

// fuzzMarket decodes a two-client market and a price vector from fuzz
// input. Client 0 gets r ∈ 1…5 types, scale 1, 2 or 4, throughputs 0 or
// 2^±8, and prices 2^±32 apart, optionally with one price tied to another
// type's price per throughput (to a relative 0, ±1e-12, ±1e-9, ±1e-6 or
// 1e-3) or equal to another price. The price level is then either 10^e,
// e ∈ −16…48, or the one that puts client 0's interior demand within
// 1e-12…1e-3 of its time budget. Client 1 (all-ones throughput, scale 1)
// moves the equal-share factor off 1.
func fuzzMarket(data []byte) (*clusterDomain, []float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	r := 1 + next()%5
	z := []float64{1, 2, 4}[next()%3]
	thr := make([]float64, r)
	for i := range thr {
		if b := next(); b != 0 {
			thr[i] = math.Exp2(float64(b-128) / 16)
		}
	}
	price := make([]float64, r)
	for i := range price {
		price[i] = math.Exp2(float64(next()-128) / 4)
	}
	switch mode, i, k := next()%3, next()%r, next()%r; mode {
	case 1:
		rel := []float64{0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3}[next()%8]
		if thr[i] > 0 && thr[k] > 0 {
			price[k] = price[i] * thr[k] / thr[i] * (1 + rel)
		}
	case 2:
		price[k] = price[i]
	}
	d := brMarket([][]float64{thr, ones(r)}, []float64{z, 1})
	level := next()
	if level%2 == 1 {
		gap := []float64{1e-12, 1e-9, 1e-6, certEta, 1e-3}[(level/2)%5]
		return d, atBudget(d, 0, price, gap)
	}
	f := math.Pow(10, float64((level/2)%65-16))
	for i := range price {
		price[i] *= f
	}
	return d, price
}

// FuzzBestResponse checks BestResponse against the enumeration, bit for
// bit, on markets fuzzMarket decodes.
func FuzzBestResponse(f *testing.F) {
	for _, seed := range [][]byte{
		{2, 0, 100, 140, 160, 128, 130, 127, 0, 0, 0, 0, 64},                    // r=3 interior
		{2, 1, 100, 140, 0, 128, 130, 127, 0, 0, 0, 0, 64},                      // a zero throughput
		{4, 2, 90, 120, 150, 170, 200, 120, 124, 128, 132, 136, 1, 0, 3, 1, 70}, // r=5, ratio +1e-12
		{2, 0, 100, 140, 160, 128, 130, 127, 2, 0, 2, 0, 80},                    // equal prices
		{2, 0, 100, 140, 160, 128, 130, 127, 0, 0, 0, 0, 1},                     // budget 1e-12
		{1, 1, 120, 180, 128, 160, 0, 0, 0, 0, 0},                               // r=2 at 1e-16
		{2, 2, 100, 140, 160, 0, 255, 127, 0, 0, 0, 0, 96},                      // prices 2^±32 apart at 1e32
		{0, 0, 200, 128, 0, 0, 0, 0, 7},                                         // r=1 near the budget
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, price := fuzzMarket(data)
		sameBestResponse(t, d, price)
	})
}

// TestBestResponseRandomMarkets runs fuzzMarket over random inputs: many
// more cases than the fuzz seeds, every run.
func TestBestResponseRandomMarkets(t *testing.T) {
	cases := 200_000
	if testing.Short() {
		cases = 20_000
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 24)
	fast := 0
	for c := 0; c < cases; c++ {
		binary.LittleEndian.PutUint64(data[0:], rng.Uint64())
		binary.LittleEndian.PutUint64(data[8:], rng.Uint64())
		binary.LittleEndian.PutUint64(data[16:], rng.Uint64())
		d, price := fuzzMarket(data)
		if sameBestResponse(t, d, price)[0] {
			fast++
		}
	}
	t.Logf("%d of %d random cases certified", fast, cases)
	if fast == 0 || fast == cases {
		t.Errorf("%d of %d certified: the sweep should reach both paths", fast, cases)
	}
}

// TestBestResponseOptimalOnSimplex checks the best response against a grid
// over the time simplex Σx ≤ 1 for r ≤ 3: no grid point may beat the
// returned demand's utility by more than 1e-9 relative.
func TestBestResponseOptimalOnSimplex(t *testing.T) {
	const steps = 40
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 24)
	checked := 0
	for c := 0; checked < 300; c++ {
		binary.LittleEndian.PutUint64(data[0:], rng.Uint64())
		binary.LittleEndian.PutUint64(data[8:], rng.Uint64())
		binary.LittleEndian.PutUint64(data[16:], rng.Uint64())
		data[0] %= 3 // r ≤ 3
		d, price := fuzzMarket(data)
		d.PrepareIteration(price)
		r := d.r
		out := make([]float64, r)
		for j := 0; j < d.n; j++ {
			tj, z := d.t[j*r:(j+1)*r], d.z[j]
			utility := func(x []float64) float64 {
				u, cost := 0.0, 0.0
				for i, xi := range x {
					u += d.sigma * tj[i] * xi
					cost += z * price[i] * xi
				}
				return math.Pow(u, 1-maxMinAlpha)/(1-maxMinAlpha) - cost
			}
			d.BestResponse(j, price, out)
			x := make([]float64, r)
			for i := range x {
				x[i] = out[i] / z
			}
			best := utility(x)
			if math.IsInf(best, -1) {
				continue // a zero row: nothing to win
			}
			checked++
			g := make([]float64, r)
			var walk func(i int, left int)
			walk = func(i int, left int) {
				if i == r {
					if v := utility(g); v > best+1e-9*math.Abs(best) {
						t.Fatalf("client %d (t %v, z %v) at price %v: grid point %v has utility %v > %v at the best response %v",
							j, tj, z, price, g, v, best, x)
					}
					return
				}
				for s := 0; s <= left; s++ {
					g[i] = float64(s) / steps
					walk(i+1, left-s)
				}
			}
			walk(0, steps)
		}
	}
}

// TestSolveMatchesEnumeration runs the max-min market with every best
// response enumerated beside the production market, over one cold solve
// and ten warm rounds of 2% churn: prices, iteration counts and averaged
// demands must agree bit for bit.
func TestSolveMatchesEnumeration(t *testing.T) {
	const n = 2100 // three chunks, so the parallel fan-out really fans out
	jobs := servePopulation(n, 7)
	c := cluster.NewCluster(n/8, n/8, n/8)
	opts := withMaxMinStep(Options{Seed: 7, Parallel: true})
	nextID := n
	for round := 0; round <= 10; round++ {
		if round > 0 {
			fresh := servePopulation(n/50, int64(100+round))
			for k := range fresh {
				fresh[k].ID = nextID
				nextID++
				jobs[(round*n/50+k)%n] = fresh[k]
			}
		}
		d := oneShotDomain(jobs, c)
		got, err := Solve(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(enumerating(oneShotDomain(jobs, c)), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations || got.WarmStarted != want.WarmStarted {
			t.Fatalf("round %d: %d iterations (warm %v), enumeration %d (warm %v)",
				round, got.Iterations, got.WarmStarted, want.Iterations, want.WarmStarted)
		}
		for i := range got.Price {
			if math.Float64bits(got.Price[i]) != math.Float64bits(want.Price[i]) {
				t.Fatalf("round %d: price %v, enumeration %v", round, got.Price, want.Price)
			}
		}
		for k := range got.demand {
			if math.Float64bits(got.demand[k]) != math.Float64bits(want.demand[k]) {
				t.Fatalf("round %d: client %d demand %v, enumeration %v",
					round, k/3, got.ClientDemand(k/3), want.ClientDemand(k/3))
			}
		}
		d.PrepareIteration(got.Price)
		fast := 0
		for j := 0; j < n; j++ {
			if _, _, ok := d.certifiedSingleton(j, got.Price); ok {
				fast++
			}
		}
		if 2*fast < n {
			t.Errorf("round %d: %d of %d clients certified at the cleared prices", round, fast, n)
		}
		opts.WarmPrice = got.Price
	}
}

// mixedMarket is n clients over r GPU types, n/8 + 1 of each, drawn to
// reach both of the chunk kernel's paths: a fifth of the throughputs are
// zero, scales are ½, 1, 2 or 3, and every fourth client's row is a multiple
// of ratio, so prices proportional to ratio tie it across types. Client 0
// has every type.
func mixedMarket(n, r int, seed int64) (*clusterDomain, []float64) {
	rng := rand.New(rand.NewSource(seed))
	ratio := make([]float64, r)
	for i := range ratio {
		ratio[i] = 1 + float64(i)
	}
	jobs := make([]cluster.Job, n)
	for j := range jobs {
		thr := make([]float64, r)
		for i := range thr {
			switch {
			case j%4 == 3:
				thr[i] = ratio[i] * float64(1+j%7)
			case j > 0 && rng.Intn(5) == 0:
			default:
				thr[i] = (1 + float64(i)) * (1 + rng.Float64())
			}
		}
		jobs[j] = cluster.Job{ID: j, Throughput: thr, Weight: 1,
			Scale: []float64{0.5, 1, 2, 3}[rng.Intn(4)], NumSteps: 1}
	}
	caps := make([]float64, r)
	for i := range caps {
		caps[i] = float64(n/8 + 1)
	}
	return oneShotDomain(jobs, cluster.Cluster{NumGPUs: caps}), ratio
}

// TestChunkKernelMatchesPerClient runs Solve over the production market,
// whose chunks go through the kernel, and over the same market with the
// kernel hidden (BestResponse and the generic fold per client): prices,
// iteration counts and every averaged demand must agree bit for bit. It
// covers client counts at the chunk edges and r = 1…5, each solved cold,
// from equal prices, from prices that tie every fourth client across its
// types, and from prices that put client 0's demand half of η from its
// time budget. Both of the kernel's paths must run at every r.
func TestChunkKernelMatchesPerClient(t *testing.T) {
	for r := 1; r <= 5; r++ {
		enumerated, responses := 0, 0
		for _, n := range []int{1, 1023, 1024, 1025, 4097} {
			d, ratio := mixedMarket(n, r, int64(10*n+r))
			equal := make([]float64, r)
			tied := make([]float64, r)
			for i := range equal {
				equal[i] = 1e6
				tied[i] = 1e6 * ratio[i]
			}
			for _, start := range []struct {
				name string
				warm []float64
			}{
				{"cold", nil},
				{"equal-prices", equal},
				{"tied", tied},
				{"near-budget", atBudget(d, 0, ratio, certEta/2)},
			} {
				opts := withMaxMinStep(Options{Seed: int64(n), Parallel: true, MaxIters: 40, WarmPrice: start.warm})
				got, err := Solve(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Solve(certifying(d), opts)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("n=%d r=%d %s", n, r, start.name)
				if got.Iterations != want.Iterations {
					t.Fatalf("%s: %d iterations, per-client %d", where, got.Iterations, want.Iterations)
				}
				for i := range got.Price {
					if math.Float64bits(got.Price[i]) != math.Float64bits(want.Price[i]) {
						t.Fatalf("%s: price %v, per-client %v", where, got.Price, want.Price)
					}
				}
				for k := range got.demand {
					if math.Float64bits(got.demand[k]) != math.Float64bits(want.demand[k]) {
						t.Fatalf("%s: client %d demand %v, per-client %v",
							where, k/r, got.ClientDemand(k/r), want.ClientDemand(k/r))
					}
				}
				enumerated += got.enumerated
				responses += n * got.Iterations
			}
		}
		t.Logf("r=%d: %d of %d best responses enumerated", r, enumerated, responses)
		if enumerated == 0 || enumerated == responses {
			t.Errorf("r=%d: %d of %d best responses enumerated: both kernel paths should run", r, enumerated, responses)
		}
	}
}
