package shard

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pop/internal/cluster"
)

// Wire paths of the coordinator↔worker protocol. Everything but the 200
// answer to PathRound is a JSON document, the popserver idiom.
const (
	// PathRound is the scatter step: one POST per worker per round carrying
	// that shard's mutation batch and sub-capacity, answered with the
	// shard's fresh allocation as a framed RoundResponse (JSON header, then
	// raw columns; `curl … | head -c 400` shows the header).
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

// Job converts the wire spec to the engine type, SpecOf back; the
// conversions compile only while the two structs match field for field.
func (s JobSpec) Job() cluster.Job { return cluster.Job(s) }

func SpecOf(j cluster.Job) JobSpec { return JobSpec(j) }

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

// RoundResponse is one shard's gather payload and the JSON header of its
// wire form (package doc, "Wire format"): a PathRound answer is this struct
// as one small JSON object, then the ids, eff_thr and x columns as raw
// little-endian bytes, which the header sizes and which fill the rest of
// the body exactly. In process the struct is handed over with the same
// bytes behind it. Receivers go through accept.
type RoundResponse struct {
	// Wire is the frame layout's version. A coordinator refuses any value
	// but wireVersion, so a mixed-version fleet fails by name.
	Wire    int     `json:"wire"`
	Round   int     `json:"round"`
	NumJobs int     `json:"num_jobs"`
	SolveMs float64 `json:"solve_ms"`
	// Kind names the engine ("lp" or "price"); Stats is its counter
	// snapshot, opaque to the coordinator (merged into /v1/stats as-is).
	Kind  string          `json:"kind,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
	// The columns' byte lengths, in wire order. Rows ascend by id at 8 bytes
	// a value: job k's id is ids[8k:], its throughput eff_thr[8k:], its time
	// fractions the x_bytes/ids_bytes values from x[8k·width:] (none for
	// policies without per-type rows).
	IDsBytes    int `json:"ids_bytes"`
	EffThrBytes int `json:"eff_thr_bytes"`
	XBytes      int `json:"x_bytes"`

	// frame[head:] is the columns; frame[:head] a sender's room for encode
	// to lay the header against them, or the header a receiver read.
	frame []byte
	head  int
}

const (
	// A header without the field decodes as version 0: the one-document
	// form (base64 columns inside the JSON) that preceded the frame.
	wireVersion      = 1
	frameContentType = "application/vnd.pop.round-frame"
	// maxHeaderBytes is as far as the coordinator scans for the header's
	// end, stats blob included. headerRoom covers its keys and numbers at
	// their longest; pack adds kind and stats.
	maxHeaderBytes = 64 << 10
	headerRoom     = 512
)

// pack fills the columns from a held-state round's result (ascending-id
// jobs, the allocation aligned). Kind and Stats size the header's room.
func (r *RoundResponse) pack(jobs []cluster.Job, alloc *cluster.Allocation) error {
	n, width := len(jobs), 0
	if alloc == nil {
		alloc = &cluster.Allocation{}
	}
	if len(alloc.EffThr) != n || (alloc.X != nil && len(alloc.X) != n) {
		return fmt.Errorf("allocation has %d throughputs and %d rows for %d jobs", len(alloc.EffThr), len(alloc.X), n)
	}
	if n > 0 && alloc.X != nil {
		width = len(alloc.X[0])
	}
	r.NumJobs = n
	r.IDsBytes, r.EffThrBytes, r.XBytes = 8*n, 8*n, 8*n*width
	r.head = headerRoom + len(r.Kind) + len(r.Stats)
	r.frame = make([]byte, r.head+8*n*(2+width))
	ids := r.frame[r.head:]
	eff, x := ids[8*n:], ids[16*n:]
	for k, j := range jobs {
		binary.LittleEndian.PutUint64(ids[8*k:], uint64(j.ID))
		binary.LittleEndian.PutUint64(eff[8*k:], math.Float64bits(alloc.EffThr[k]))
	}
	if width == 0 {
		return nil
	}
	for k, row := range alloc.X {
		if len(row) != width {
			return fmt.Errorf("job %d: row has %d types, job %d has %d", jobs[k].ID, len(row), jobs[0].ID, width)
		}
		for t, v := range row {
			binary.LittleEndian.PutUint64(x[8*(k*width+t):], math.Float64bits(v))
		}
	}
	return nil
}

// encode returns the wire form. The header goes into the room pack left in
// front of the columns, which are sent from where they were written; a
// response without that room has them appended to the header instead.
func (r *RoundResponse) encode() ([]byte, error) {
	h, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	if len(h) > r.head {
		return append(h, r.frame[r.head:]...), nil
	}
	start := r.head - len(h)
	copy(r.frame[start:], h)
	return r.frame[start:], nil
}

// decodeFrame is encode's inverse over a whole body: it decodes the header
// (a streaming decoder stops at the JSON object's end, and is shown at most
// maxHeaderBytes) and keeps the body; accept is what reads the columns.
func decodeFrame(contentType string, body []byte) (*RoundResponse, error) {
	if contentType != frameContentType {
		return nil, fmt.Errorf("wire version 0 (content type %q), want %d", contentType, wireVersion)
	}
	r := new(RoundResponse)
	dec := json.NewDecoder(bytes.NewReader(body[:min(len(body), maxHeaderBytes)]))
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("bad response: header: %w", err)
	}
	if r.Wire != wireVersion {
		return nil, fmt.Errorf("wire version %d, want %d", r.Wire, wireVersion)
	}
	r.frame, r.head = body, int(dec.InputOffset())
	return r, nil
}

// gather is an accepted response's allocation, read in place: the columns
// of the frame it arrived in, 8 bytes a value (x is n×width, row-major).
type gather struct {
	ids, effThr, x []byte
	width          int
}

func (g *gather) id(k int) int { return int(int64(binary.LittleEndian.Uint64(g.ids[8*k:]))) }

// f64 reads value k of a float column.
func f64(col []byte, k int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(col[8*k:]))
}

// accept checks a gathered response, where it lies, against what was asked:
// the round; declared lengths that fill the frame exactly and agree with
// each other and NumJobs; strictly ascending ids; finite values; the pool's
// width. It is the only reader of the packed bytes, and a response failing
// any of it is rejected whole.
func (r *RoundResponse) accept(round, types int) (gather, error) {
	if r.Round != round {
		return gather{}, fmt.Errorf("answered round %d, asked for %d", r.Round, round)
	}
	cols := r.frame[r.head:]
	if r.IDsBytes < 0 || r.EffThrBytes < 0 || r.XBytes < 0 ||
		r.IDsBytes > len(cols) || r.EffThrBytes > len(cols)-r.IDsBytes ||
		r.XBytes != len(cols)-r.IDsBytes-r.EffThrBytes {
		return gather{}, fmt.Errorf("header declares columns of %d, %d and %d bytes, %d follow it",
			r.IDsBytes, r.EffThrBytes, r.XBytes, len(cols))
	}
	n := r.IDsBytes / 8
	if r.NumJobs != n || r.IDsBytes%8 != 0 || r.EffThrBytes != r.IDsBytes {
		return gather{}, fmt.Errorf("num_jobs %d but ids and eff_thr columns of %d and %d bytes", r.NumJobs, r.IDsBytes, r.EffThrBytes)
	}
	g := gather{ids: cols[: 8*n : 8*n], effThr: cols[8*n : 16*n : 16*n], x: cols[16*n:]}
	if r.XBytes > 0 {
		if r.XBytes != 8*n*types {
			return gather{}, fmt.Errorf("x column is %d bytes for %d ids in a pool of %d types", r.XBytes, n, types)
		}
		g.width = types
	}
	for k := 1; k < n; k++ {
		if g.id(k) <= g.id(k-1) {
			return gather{}, fmt.Errorf("ids not strictly ascending at row %d (%d after %d)", k, g.id(k), g.id(k-1))
		}
	}
	for i, col := range [][]byte{g.effThr, g.x} {
		for k := range len(col) / 8 {
			if v := f64(col, k); math.IsNaN(v) || math.IsInf(v, 0) {
				return gather{}, fmt.Errorf("%s[%d] is %v", [...]string{"eff_thr", "x"}[i], k, v)
			}
		}
	}
	return g, nil
}

// find locates id's row: the cursor position when the caller is walking ids
// in order (the usual case), a binary search otherwise.
func (g *gather) find(id int, cursor int) (int, bool) {
	n := len(g.ids) / 8
	if cursor < n && g.id(cursor) == id {
		return cursor, true
	}
	return sort.Find(n, func(k int) int { return cmp.Compare(id, g.id(k)) })
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
