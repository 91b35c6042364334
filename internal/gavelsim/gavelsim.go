// Package gavelsim is a discrete-event simulator for the end-to-end cluster
// scheduling experiments (Figures 6 and 8 of the POP paper). It plays a
// synthetic job trace against a pluggable allocation policy (the exact
// Gavel formulations from package cluster, or their POP variants) and
// reports the downstream metrics the paper cares about: average job
// completion time, makespan, and cumulative policy computation time.
//
// The simulation model follows Gavel's: time advances in fixed scheduling
// rounds; at each round boundary the policy recomputes the allocation over
// the currently active jobs; during a round each job progresses at its
// allocated effective throughput.
package gavelsim

import (
	"fmt"
	"math/rand"
	"time"

	"pop/internal/cluster"
)

// Policy computes an allocation for the active jobs.
type Policy func(jobs []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error)

// Config describes a simulation.
type Config struct {
	Cluster cluster.Cluster
	// NumJobs is the total number of jobs in the trace.
	NumJobs int
	// ArrivalRatePerHour is the Poisson arrival rate. Ignored when
	// AllAtOnce is set.
	ArrivalRatePerHour float64
	// AllAtOnce submits every job at t=0 (the makespan experiment).
	AllAtOnce bool
	// RoundSeconds is the scheduling round length; 0 means 360 (Gavel's
	// 6-minute rounds).
	RoundSeconds float64
	// MultiGPUFrac is the fraction of multi-GPU jobs in the trace.
	MultiGPUFrac float64
	// MaxSimHours aborts runaway simulations; 0 means 24*30 (30 days).
	MaxSimHours float64
	Seed        int64
}

// Result aggregates the simulation outputs.
type Result struct {
	// AvgJCTHours is the mean completion time minus arrival time.
	AvgJCTHours float64
	// MakespanHours is the completion time of the last job.
	MakespanHours float64
	// PolicyTime is the cumulative wall-clock time spent in the policy.
	PolicyTime time.Duration
	// PolicyCalls is the number of allocation recomputations.
	PolicyCalls int
	// Completed is the number of jobs that finished within MaxSimHours.
	Completed int
	Rounds    int
}

// MeanPolicyTime is PolicyTime / PolicyCalls.
func (r *Result) MeanPolicyTime() time.Duration {
	if r.PolicyCalls == 0 {
		return 0
	}
	return r.PolicyTime / time.Duration(r.PolicyCalls)
}

type traceJob struct {
	job       cluster.Job
	arrival   float64 // seconds
	remaining float64 // steps
	done      bool
	finish    float64
}

// Run plays the trace against the policy.
func Run(cfg Config, policy Policy) (*Result, error) {
	if cfg.NumJobs <= 0 {
		return nil, fmt.Errorf("gavelsim: NumJobs must be positive")
	}
	round := cfg.RoundSeconds
	if round == 0 {
		round = 360
	}
	maxHours := cfg.MaxSimHours
	if maxHours == 0 {
		maxHours = 24 * 30
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := cluster.GenerateJobs(cfg.NumJobs, cfg.Seed+1, cfg.MultiGPUFrac)
	trace := make([]traceJob, cfg.NumJobs)
	t := 0.0
	for i := range trace {
		arrival := 0.0
		if !cfg.AllAtOnce {
			t += rng.ExpFloat64() / cfg.ArrivalRatePerHour * 3600
			arrival = t
		}
		trace[i] = traceJob{job: jobs[i], arrival: arrival, remaining: jobs[i].NumSteps}
	}

	res := &Result{}
	now := 0.0
	limit := maxHours * 3600
	for now < limit {
		// Active set.
		var active []cluster.Job
		var activeIdx []int
		pending := false
		for i := range trace {
			tj := &trace[i]
			if tj.done {
				continue
			}
			if tj.arrival <= now {
				active = append(active, tj.job)
				activeIdx = append(activeIdx, i)
			} else {
				pending = true
			}
		}
		if len(active) == 0 {
			if !pending {
				break // everything finished
			}
			now += round
			continue
		}

		start := time.Now()
		alloc, err := policy(active, cfg.Cluster)
		res.PolicyTime += time.Since(start)
		res.PolicyCalls++
		if err != nil {
			return nil, fmt.Errorf("gavelsim: policy failed at t=%gs: %w", now, err)
		}

		for pos, i := range activeIdx {
			tj := &trace[i]
			progress := alloc.EffThr[pos] * round
			tj.remaining -= progress
			if tj.remaining <= 0 {
				// Interpolate the finish instant within the round.
				frac := 1.0
				if progress > 0 {
					frac = 1 + tj.remaining/progress // remaining is ≤ 0
				}
				tj.done = true
				tj.finish = now + frac*round
				res.Completed++
			}
		}
		now += round
		res.Rounds++
	}

	// Metrics over completed jobs.
	sumJCT := 0.0
	for i := range trace {
		tj := &trace[i]
		if !tj.done {
			continue
		}
		sumJCT += tj.finish - tj.arrival
		if tj.finish > res.MakespanHours {
			res.MakespanHours = tj.finish
		}
	}
	res.MakespanHours /= 3600
	if res.Completed > 0 {
		res.AvgJCTHours = sumJCT / float64(res.Completed) / 3600
	}
	return res, nil
}
