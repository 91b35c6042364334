// Package tm generates synthetic traffic matrices for the traffic
// engineering experiments, following the four demand models used by the POP
// paper (which inherits them from NCFlow): Gravity, Uniform, Bimodal, and
// Poisson. Poisson is the skewed model — a small percentage of commodities
// dominate total demand — and is the one that exercises POP's client
// splitting.
package tm

import (
	"fmt"
	"math"
	"math/rand"
)

// Model selects a traffic demand distribution.
type Model int8

const (
	// Gravity draws demand(s,d) proportional to mass(s)·mass(d) with
	// lognormal node masses, the classic WAN model.
	Gravity Model = iota
	// Uniform draws each demand uniformly from a fixed band.
	Uniform
	// Bimodal mixes a small-demand mode (80%) and a large-demand mode (20%).
	Bimodal
	// Poisson is the heavy-tailed skewed model: most commodities are small,
	// a few dominate the network demand.
	Poisson
)

func (m Model) String() string {
	switch m {
	case Gravity:
		return "gravity"
	case Uniform:
		return "uniform"
	case Bimodal:
		return "bimodal"
	case Poisson:
		return "poisson"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Models lists all four demand models.
func Models() []Model { return []Model{Gravity, Uniform, Bimodal, Poisson} }

// Demand is one commodity: traffic from Src to Dst of the given Amount.
type Demand struct {
	Src, Dst int
	Amount   float64
}

// Config controls matrix generation.
type Config struct {
	Nodes       int     // number of nodes in the topology
	Commodities int     // number of (src,dst) demands to generate
	Model       Model   // demand distribution
	TotalDemand float64 // demands are rescaled to sum to this; 0 keeps raw
	Seed        int64
}

// Generate produces a traffic matrix as a list of commodities with distinct
// (src, dst) pairs. Deterministic in Config.
func Generate(cfg Config) []Demand {
	if cfg.Nodes < 2 {
		panic("tm: need at least 2 nodes")
	}
	maxPairs := cfg.Nodes * (cfg.Nodes - 1)
	k := cfg.Commodities
	if k > maxPairs {
		k = maxPairs
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Distinct pairs: for dense requests relative to n², enumerate and
	// shuffle; otherwise rejection-sample.
	pairs := samplePairs(rng, cfg.Nodes, k, maxPairs)

	mass := make([]float64, cfg.Nodes)
	for i := range mass {
		mass[i] = math.Exp(0.5 * rng.NormFloat64()) // lognormal(0, 0.5): moderate spread
	}

	demands := make([]Demand, 0, k)
	for _, pr := range pairs {
		amt := 0.0
		switch cfg.Model {
		case Gravity:
			amt = mass[pr[0]] * mass[pr[1]]
		case Uniform:
			amt = 0.5 + rng.Float64()
		case Bimodal:
			if rng.Float64() < 0.2 {
				amt = 5 + 5*rng.Float64()
			} else {
				amt = 0.2 + 0.6*rng.Float64()
			}
		case Poisson:
			// Pareto(α=0.9): heavy tail; a few commodities dominate.
			u := rng.Float64()
			amt = math.Pow(1-u, -1/0.9) - 0.5
			if amt < 0.05 {
				amt = 0.05
			}
		default:
			panic(fmt.Sprintf("tm: unknown model %v", cfg.Model))
		}
		demands = append(demands, Demand{Src: pr[0], Dst: pr[1], Amount: amt})
	}

	if cfg.TotalDemand > 0 {
		Rescale(demands, cfg.TotalDemand)
	}
	return demands
}

// Rescale multiplies all demand amounts so they sum to total.
func Rescale(demands []Demand, total float64) {
	sum := 0.0
	for _, d := range demands {
		sum += d.Amount
	}
	if sum <= 0 {
		return
	}
	f := total / sum
	for i := range demands {
		demands[i].Amount *= f
	}
}

func samplePairs(rng *rand.Rand, n, k, maxPairs int) [][2]int {
	if k*3 >= maxPairs {
		// Enumerate all ordered pairs and take a shuffled prefix.
		all := make([][2]int, 0, maxPairs)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					all = append(all, [2]int{s, d})
				}
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:k]
	}
	seen := map[[2]int]bool{}
	out := make([][2]int, 0, k)
	for len(out) < k {
		s := rng.Intn(n)
		d := rng.Intn(n)
		if s == d {
			continue
		}
		pr := [2]int{s, d}
		if seen[pr] {
			continue
		}
		seen[pr] = true
		out = append(out, pr)
	}
	return out
}

// Diurnal generates a sequence of traffic matrices over `steps` time steps
// with a day-night utilization cycle plus per-step jitter, modelling the
// private-WAN five-day trace in Figure 11 of the paper. stepsPerDay controls
// the cycle length. The commodity set is fixed; only amounts vary.
func Diurnal(cfg Config, steps, stepsPerDay int) [][]Demand {
	base := Generate(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 7919))
	out := make([][]Demand, steps)
	for t := 0; t < steps; t++ {
		phase := 2 * math.Pi * float64(t%stepsPerDay) / float64(stepsPerDay)
		level := 0.75 + 0.25*math.Sin(phase) // 0.5 .. 1.0 of peak
		step := make([]Demand, len(base))
		for i, d := range base {
			jitter := 1 + 0.2*rng.NormFloat64()
			if jitter < 0.1 {
				jitter = 0.1
			}
			step[i] = Demand{Src: d.Src, Dst: d.Dst, Amount: d.Amount * level * jitter}
		}
		out[t] = step
	}
	return out
}
