package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"pop/internal/cluster"
)

// Wire paths of the coordinator↔worker protocol. HTTP/JSON matches the
// popserver idiom: the same tooling (curl, httptest) drives both surfaces.
const (
	// PathRound is the scatter step: one POST per worker per round carrying
	// that shard's mutation batch and sub-capacity, answered with the
	// shard's fresh allocation.
	PathRound = "/shard/v1/round"
	// PathSync is the rebuild step: the coordinator's authoritative client
	// registry for the shard, reconciled idempotently into the worker.
	PathSync = "/shard/v1/sync"
	// PathHealth reports liveness and the worker's last applied round.
	PathHealth = "/shard/v1/health"
)

// JobSpec is the wire form of one client (a cluster job). It mirrors
// cluster.Job field for field so specs round-trip exactly — encoding/json
// writes the shortest decimal that parses back to the same float64, which
// is what lets the sharded-vs-single-process equivalence suite pin
// allocations to 1e-6.
type JobSpec struct {
	ID         int       `json:"id"`
	Throughput []float64 `json:"throughput"`
	Weight     float64   `json:"weight,omitempty"`
	Scale      float64   `json:"scale,omitempty"`
	NumSteps   float64   `json:"num_steps,omitempty"`
	MemFrac    float64   `json:"mem_frac,omitempty"`
	Priority   float64   `json:"priority,omitempty"`
}

// Job converts the wire spec to the engine type.
func (s JobSpec) Job() cluster.Job {
	return cluster.Job{
		ID:         s.ID,
		Throughput: s.Throughput,
		Weight:     s.Weight,
		Scale:      s.Scale,
		NumSteps:   s.NumSteps,
		MemFrac:    s.MemFrac,
		Priority:   s.Priority,
	}
}

// SpecOf converts an engine job to its wire form.
func SpecOf(j cluster.Job) JobSpec {
	return JobSpec{
		ID:         j.ID,
		Throughput: j.Throughput,
		Weight:     j.Weight,
		Scale:      j.Scale,
		NumSteps:   j.NumSteps,
		MemFrac:    j.MemFrac,
		Priority:   j.Priority,
	}
}

// RoundRequest is the scatter payload for one worker: the round to run, the
// mutations batched for its shard since the last acked round, and the
// shard's slice of the resource pool (the coordinator owns the 1/W split, so
// workers never need to know the fleet size).
//
// PrevRound is the last round the coordinator saw this worker ack. A worker
// whose own last applied round is *behind* PrevRound has missed a mutation
// batch (it crashed and restarted, or lost its state) and must answer 409 so
// the coordinator reconciles it from the registry first. A worker *ahead* of
// PrevRound finished a round the coordinator had already written off as
// straggling; since the coordinator re-queues every unacked batch and all
// mutations are idempotent (upserts carry full specs, removes are by id),
// re-applying is safe and the worker just proceeds.
type RoundRequest struct {
	Round     int       `json:"round"`
	PrevRound int       `json:"prev_round"`
	TypeNames []string  `json:"gpu_types,omitempty"`
	GPUs      []float64 `json:"gpus"`
	Upserts   []JobSpec `json:"upserts,omitempty"`
	Removes   []int     `json:"removes,omitempty"`
}

// RoundResponse is one shard's gather payload. The allocation is columnar,
// and the columns travel packed: each is the little-endian bytes of its
// values (int64 ids, float64 bit patterns), which encoding/json carries as
// one base64 string. Shipping n rows is the one inherently O(n) step of a
// served round, and a packed column moves at memcpy speed where a JSON
// number array costs a strconv call per value on each end; floats are
// bit-exact by construction. It is still one JSON document that
// encoding/json decodes, so curl, httptest, and the benchmark's wire tap
// keep working on it.
type RoundResponse struct {
	Round   int     `json:"round"`
	NumJobs int     `json:"num_jobs"`
	SolveMs float64 `json:"solve_ms"`
	// IDs, EffThr, and X carry the shard's allocation in ascending-id
	// order: 8 bytes per value, so job k's id is IDs[8k:8k+8], its effective
	// throughput EffThr[8k:8k+8], and its per-type time fractions the
	// width = len(X)/len(IDs) values from X[8k·width:] (absent for policies
	// that do not expose per-type rows). Receivers go through columns,
	// which checks all of that before anything is indexed.
	IDs    []byte `json:"ids"`
	EffThr []byte `json:"eff_thr"`
	X      []byte `json:"x,omitempty"`
	// Kind names the engine ("lp" or "price"); Stats is its counter
	// snapshot, opaque to the coordinator (merged into /v1/stats as-is).
	Kind  string          `json:"kind,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
}

// pack fills the columns from a held-state round's result: jobs in
// ascending-id order with the allocation aligned to them.
func (r *RoundResponse) pack(jobs []cluster.Job, alloc *cluster.Allocation) error {
	n := len(jobs)
	r.NumJobs = n
	r.IDs = make([]byte, 0, 8*n)
	r.EffThr = make([]byte, 0, 8*n)
	if alloc == nil {
		if n > 0 {
			return fmt.Errorf("no allocation for %d jobs", n)
		}
		return nil
	}
	if len(alloc.EffThr) != n || (alloc.X != nil && len(alloc.X) != n) {
		return fmt.Errorf("allocation has %d throughputs and %d rows for %d jobs", len(alloc.EffThr), len(alloc.X), n)
	}
	for k, j := range jobs {
		r.IDs = binary.LittleEndian.AppendUint64(r.IDs, uint64(j.ID))
		r.EffThr = binary.LittleEndian.AppendUint64(r.EffThr, math.Float64bits(alloc.EffThr[k]))
	}
	if n == 0 || alloc.X == nil {
		return nil
	}
	width := len(alloc.X[0])
	r.X = make([]byte, 0, 8*n*width)
	for k, row := range alloc.X {
		if len(row) != width {
			return fmt.Errorf("job %d: row has %d types, job %d has %d", jobs[k].ID, len(row), jobs[0].ID, width)
		}
		for _, v := range row {
			r.X = binary.LittleEndian.AppendUint64(r.X, math.Float64bits(v))
		}
	}
	return nil
}

// gather is a validated, unpacked RoundResponse allocation: the ascending
// id column and one slab holding the throughput column followed by the
// row-major n×width time fractions.
type gather struct {
	ids    []int
	effThr []float64 // slab[:n]
	x      []float64 // slab[n:], n×width (empty when width == 0)
	width  int
}

// columns validates the response's shape and unpacks it. It is the only
// reader of the packed bytes: column lengths must agree with each other and
// with NumJobs, ids must be strictly ascending, and every value must be
// finite — a response that fails any of it is rejected whole.
func (r *RoundResponse) columns() (gather, error) {
	if len(r.IDs)%8 != 0 {
		return gather{}, fmt.Errorf("ids column is %d bytes, not a multiple of 8", len(r.IDs))
	}
	n := len(r.IDs) / 8
	if r.NumJobs != n {
		return gather{}, fmt.Errorf("num_jobs %d but %d ids", r.NumJobs, n)
	}
	if len(r.EffThr) != 8*n {
		return gather{}, fmt.Errorf("eff_thr column is %d bytes for %d ids", len(r.EffThr), n)
	}
	g := gather{}
	if len(r.X) > 0 {
		if n == 0 || len(r.X)%(8*n) != 0 {
			return gather{}, fmt.Errorf("x column is %d bytes for %d ids", len(r.X), n)
		}
		g.width = len(r.X) / (8 * n)
	}
	g.ids = make([]int, n)
	for k := range g.ids {
		g.ids[k] = int(int64(binary.LittleEndian.Uint64(r.IDs[8*k:])))
		if k > 0 && g.ids[k] <= g.ids[k-1] {
			return gather{}, fmt.Errorf("ids not strictly ascending at row %d (%d after %d)", k, g.ids[k], g.ids[k-1])
		}
	}
	slab := make([]float64, n*(1+g.width))
	g.effThr, g.x = slab[:n:n], slab[n:]
	for _, col := range []struct {
		name string
		dst  []float64
		src  []byte
	}{{"eff_thr", g.effThr, r.EffThr}, {"x", g.x, r.X}} {
		for k := range col.dst {
			v := math.Float64frombits(binary.LittleEndian.Uint64(col.src[8*k:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return gather{}, fmt.Errorf("%s[%d] is %v", col.name, k, v)
			}
			col.dst[k] = v
		}
	}
	return g, nil
}

// find locates id's row: the cursor position when the caller is walking ids
// in order (the usual case), a binary search otherwise.
func (g *gather) find(id int, cursor int) (int, bool) {
	if cursor < len(g.ids) && g.ids[cursor] == id {
		return cursor, true
	}
	k, ok := slices.BinarySearch(g.ids, id)
	return k, ok
}

// validateSpecs checks a batch of wire jobs against the pool shape: one
// throughput per GPU type and no negative quantity, so nothing downstream
// indexes past a short row.
func validateSpecs(specs []JobSpec, gpus []float64, typeNames []string) error {
	if len(typeNames) != 0 && len(typeNames) != len(gpus) {
		return fmt.Errorf("%d gpu type names for %d capacities", len(typeNames), len(gpus))
	}
	for _, g := range gpus {
		if g < 0 {
			return fmt.Errorf("negative capacity %g", g)
		}
	}
	for _, s := range specs {
		if len(s.Throughput) != len(gpus) {
			return fmt.Errorf("job %d: %d throughputs for %d gpu types", s.ID, len(s.Throughput), len(gpus))
		}
		if s.Weight < 0 || s.Scale < 0 || s.NumSteps < 0 || s.MemFrac < 0 || s.Priority < 0 {
			return fmt.Errorf("job %d: negative attribute", s.ID)
		}
		for _, t := range s.Throughput {
			if t < 0 {
				return fmt.Errorf("job %d: negative throughput %g", s.ID, t)
			}
		}
	}
	return nil
}

// SyncRequest reconciles a worker against the coordinator's authoritative
// registry: Jobs is the complete client set of the shard as of Round (the
// coordinator's mutations up to and including the round being retried are
// already folded in). The worker upserts every listed job and removes any it
// holds that is absent — unchanged jobs are no-ops in the engines, so a
// worker restored from its own state file keeps its warm partitions, bases,
// and prices through a sync.
type SyncRequest struct {
	Round     int       `json:"round"`
	TypeNames []string  `json:"gpu_types,omitempty"`
	GPUs      []float64 `json:"gpus"`
	Jobs      []JobSpec `json:"jobs"`
}

// SyncResponse acks a reconcile: Kept counts the jobs the worker already
// held (its warm state), Added and Removed the diff it applied.
type SyncResponse struct {
	Round   int `json:"round"`
	Kept    int `json:"kept"`
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// HealthResponse reports worker liveness.
type HealthResponse struct {
	OK        bool   `json:"ok"`
	LastRound int    `json:"last_round"`
	NumJobs   int    `json:"num_jobs"`
	Kind      string `json:"kind,omitempty"`
}

// errorResponse is the JSON error body both ends of the protocol use.
type errorResponse struct {
	Error     string `json:"error"`
	LastRound int    `json:"last_round,omitempty"`
}
