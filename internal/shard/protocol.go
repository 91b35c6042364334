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

// Wire paths of the coordinator↔worker protocol. Round and sync requests
// and the 200 answer to a round are frames (a JSON header, then raw
// columns; `curl … | head -c 400` shows the header); everything else is a
// JSON document, the popserver idiom.
const (
	// PathRound is the scatter step: one POST per worker per round carrying
	// that shard's mutation batch and sub-capacity as a RoundRequest,
	// answered with the shard's fresh allocation as a RoundResponse.
	PathRound = "/shard/v1/round"
	// PathSync is the rebuild step: the coordinator's authoritative client
	// registry for the shard (a SyncRequest), reconciled idempotently into
	// the worker.
	PathSync = "/shard/v1/sync"
	// PathHealth reports liveness and the worker's last applied round.
	PathHealth = "/shard/v1/health"
)

// RoundRequest is the scatter payload for one worker and the JSON header of
// its wire form (package doc, "Wire format"): the round to run, the shard's
// slice of the resource pool (the coordinator owns the 1/W split, so workers
// never need to know the fleet size), and the sizes of the columns that
// follow the header as raw little-endian bytes and fill the rest of the body
// exactly: the mutations queued for the shard since its last acked round.
// In process the struct is handed over with the same bytes behind it.
// Senders build it with newRequest; receivers go through read.
//
// PrevRound is the last round the coordinator saw this worker ack. A worker
// whose own last applied round is *behind* PrevRound has missed a mutation
// batch (it crashed and restarted, or lost its state) and must answer 409 so
// the coordinator reconciles it from the registry first. A worker *ahead* of
// PrevRound finished a round the coordinator had already written off as
// straggling; since the coordinator re-queues every unacked batch and all
// mutations are idempotent (upserts carry full jobs, removes are by id),
// re-applying is safe and the worker just proceeds.
type RoundRequest struct {
	// Wire is the frame layout's version, shared with RoundResponse; a
	// worker refuses any other value, a JSON body without one included.
	Wire      int       `json:"wire"`
	Round     int       `json:"round"`
	PrevRound int       `json:"prev_round"`
	TypeNames []string  `json:"gpu_types,omitempty"`
	GPUs      []float64 `json:"gpus"`
	// The columns' byte lengths, in wire order, at 8 bytes a value: the ids
	// to remove; the upserted jobs' ids, ascending; their throughputs,
	// n × len(gpus) row-major. Weight, scale, num_steps, mem_frac and
	// priority follow, one column each as long as the ids.
	RemovesBytes    int `json:"removes_bytes"`
	IDsBytes        int `json:"ids_bytes"`
	ThroughputBytes int `json:"throughput_bytes"`

	frame []byte // the whole body; the columns start at head
	head  int
}

// SyncRequest reconciles a worker against the coordinator's authoritative
// registry. It is the round request's frame: its upserts are the complete
// client set of the shard as of Round (the coordinator's mutations up to and
// including the round being retried are already folded in), it removes
// nothing, and PrevRound is unused. The worker upserts every listed job and
// removes any it holds that is absent — unchanged jobs are no-ops in the
// engines, so a worker restored from its own state file keeps its warm
// partitions, bases, and prices through a sync.
type SyncRequest = RoundRequest

// attrNames are the per-job columns after the throughputs, in wire order.
var attrNames = [...]string{"weight", "scale", "num_steps", "mem_frac", "priority"}

// newRequest lays out a request: the header, then removes, the upserted
// jobs' ids, their throughputs, and their attribute columns. upserts ascend
// by id; a job without one throughput per type of pool is refused.
func newRequest(round, prevRound int, pool cluster.Cluster, upserts []cluster.Job, removes []int) (*RoundRequest, error) {
	n, width := len(upserts), pool.NumTypes()
	r := &RoundRequest{Wire: wireVersion, Round: round, PrevRound: prevRound, TypeNames: pool.TypeNames, GPUs: pool.NumGPUs,
		RemovesBytes: 8 * len(removes), IDsBytes: 8 * n, ThroughputBytes: 8 * n * width}
	h, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	r.head = len(h)
	r.frame = make([]byte, len(h)+r.RemovesBytes+8*n*(1+width+len(attrNames)))
	copy(r.frame, h)
	rm := r.frame[r.head:]
	ids := rm[r.RemovesBytes:]
	thr := ids[8*n:]
	at := thr[8*n*width:]
	for k, id := range removes {
		binary.LittleEndian.PutUint64(rm[8*k:], uint64(id))
	}
	for k, j := range upserts {
		if len(j.Throughput) != width {
			return nil, fmt.Errorf("job %d: %d throughputs for %d gpu types", j.ID, len(j.Throughput), width)
		}
		binary.LittleEndian.PutUint64(ids[8*k:], uint64(j.ID))
		for t, v := range j.Throughput {
			putF64(thr, k*width+t, v)
		}
		for a, v := range [len(attrNames)]float64{j.Weight, j.Scale, j.NumSteps, j.MemFrac, j.Priority} {
			putF64(at, a*n+k, v)
		}
	}
	return r, nil
}

// batch is an accepted request's mutation batch, read in place: the columns
// of the frame it arrived in, 8 bytes a value.
type batch struct {
	removes, ids, thr, attrs []byte
	width                    int
}

// read checks a request, where it lies, before any engine sees a job: the
// wire version; capacities ≥ 0, with a name for each or none; declared
// lengths that fill the body exactly, throughput rows of the pool's width;
// both id columns strictly ascending; every value finite and ≥ 0 (NaN and
// ±Inf included, which a JSON body could never carry). It is the only
// reader of the packed bytes, and a request failing any of it is refused
// whole.
func (r *RoundRequest) read() (batch, error) {
	if r.Wire != wireVersion {
		return batch{}, fmt.Errorf("wire version %d, want %d", r.Wire, wireVersion)
	}
	width := len(r.GPUs)
	if len(r.TypeNames) != 0 && len(r.TypeNames) != width {
		return batch{}, fmt.Errorf("%d gpu type names for %d capacities", len(r.TypeNames), width)
	}
	for _, g := range r.GPUs {
		if g < 0 {
			return batch{}, fmt.Errorf("negative capacity %g", g)
		}
	}
	cols := r.frame[r.head:]
	row := 8 * (1 + width + len(attrNames)) // one upserted job's bytes
	n := r.IDsBytes / 8
	if r.RemovesBytes < 0 || r.RemovesBytes%8 != 0 || r.RemovesBytes > len(cols) ||
		r.IDsBytes < 0 || r.IDsBytes%8 != 0 || n > (len(cols)-r.RemovesBytes)/row ||
		r.ThroughputBytes != 8*n*width || r.RemovesBytes+n*row != len(cols) {
		return batch{}, fmt.Errorf("header declares %d bytes of removes, %d of ids and %d of throughputs at width %d, %d follow it",
			r.RemovesBytes, r.IDsBytes, r.ThroughputBytes, width, len(cols))
	}
	b := batch{removes: cols[:r.RemovesBytes], width: width}
	b.ids = cols[r.RemovesBytes : r.RemovesBytes+8*n]
	b.thr = cols[r.RemovesBytes+8*n : r.RemovesBytes+8*n*(1+width)]
	b.attrs = cols[r.RemovesBytes+8*n*(1+width):]
	for i, col := range [][]byte{b.removes, b.ids} {
		for k := 1; k < len(col)/8; k++ {
			if i64(col, k) <= i64(col, k-1) {
				return batch{}, fmt.Errorf("%s not strictly ascending at row %d (%d after %d)",
					[...]string{"removes", "ids"}[i], k, i64(col, k), i64(col, k-1))
			}
		}
	}
	for k := range len(b.thr) / 8 {
		if v := f64(b.thr, k); !(v >= 0) || math.IsInf(v, 1) {
			return batch{}, fmt.Errorf("job %d: throughput %v", i64(b.ids, k/width), v)
		}
	}
	for k := range len(b.attrs) / 8 {
		if v := f64(b.attrs, k); !(v >= 0) || math.IsInf(v, 1) {
			return batch{}, fmt.Errorf("job %d: %s %v", i64(b.ids, k%n), attrNames[k/n], v)
		}
	}
	return b, nil
}

// upserts decodes the batch's jobs, ascending by id; their throughput rows
// share one slab.
func (b *batch) upserts() []cluster.Job {
	n, w := len(b.ids)/8, b.width
	slab := make([]float64, n*w)
	for k := range slab {
		slab[k] = f64(b.thr, k)
	}
	jobs := make([]cluster.Job, n)
	for k := range jobs {
		at := func(a int) float64 { return f64(b.attrs, a*n+k) }
		jobs[k] = cluster.Job{ID: i64(b.ids, k), Throughput: slab[k*w : (k+1)*w : (k+1)*w],
			Weight: at(0), Scale: at(1), NumSteps: at(2), MemFrac: at(3), Priority: at(4)}
	}
	return jobs
}

// numRemoves and remove read the batch's removes column.
func (b *batch) numRemoves() int  { return len(b.removes) / 8 }
func (b *batch) remove(k int) int { return i64(b.removes, k) }

// RoundResponse is one shard's gather payload and the JSON header of its
// wire form (package doc, "Wire format"): a PathRound answer is this struct
// as one small JSON object, then the ids, eff_thr and x columns as raw
// little-endian bytes, which the header sizes and which fill the rest of
// the body exactly. In process the struct is handed over with the same
// bytes behind it. Receivers go through accept.
type RoundResponse struct {
	// Wire is the frame layout's version. A coordinator refuses any value
	// but wireVersion, so a mixed-version fleet fails by name either way.
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
	// form (base64 columns inside the JSON) that preceded the frame, or a
	// JSON request. Version 1 framed responses only.
	wireVersion      = 2
	frameContentType = "application/vnd.pop.round-frame"
	// maxHeaderBytes is as far as either end scans for a header's end, a
	// response's stats blob included. headerRoom covers a response header's
	// keys and numbers at their longest; pack adds kind and stats.
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
		putF64(eff, k, alloc.EffThr[k])
	}
	if width == 0 {
		return nil
	}
	for k, row := range alloc.X {
		if len(row) != width {
			return fmt.Errorf("job %d: row has %d types, job %d has %d", jobs[k].ID, len(row), jobs[0].ID, width)
		}
		for t, v := range row {
			putF64(x, k*width+t, v)
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

// decodeHeader decodes the JSON header at the start of a frame into v and
// returns where the columns begin: a streaming decoder stops at the object's
// end, and is shown at most maxHeaderBytes.
func decodeHeader(body []byte, v any) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(body[:min(len(body), maxHeaderBytes)]))
	if err := dec.Decode(v); err != nil {
		return 0, fmt.Errorf("header: %w", err)
	}
	return int(dec.InputOffset()), nil
}

// decodeFrame is encode's inverse over a whole body: it decodes the header
// and keeps the body; accept is what reads the columns.
func decodeFrame(contentType string, body []byte) (*RoundResponse, error) {
	if contentType != frameContentType {
		return nil, fmt.Errorf("wire version 0 (content type %q), want %d", contentType, wireVersion)
	}
	r := &RoundResponse{frame: body}
	var err error
	if r.head, err = decodeHeader(body, r); err != nil {
		return nil, fmt.Errorf("bad response: %w", err)
	}
	if r.Wire != wireVersion {
		return nil, fmt.Errorf("wire version %d, want %d", r.Wire, wireVersion)
	}
	return r, nil
}

// decodeRequest is the worker's decodeFrame: the header of a request body,
// with the body kept behind it for read.
func decodeRequest(body []byte) (*RoundRequest, error) {
	r := &RoundRequest{frame: body}
	var err error
	r.head, err = decodeHeader(body, r)
	return r, err
}

// gather is an accepted response's allocation, read in place: the columns
// of the frame it arrived in, 8 bytes a value (x is n×width, row-major).
type gather struct {
	ids, effThr, x []byte
	width          int
}

func (g *gather) id(k int) int { return i64(g.ids, k) }

// n is the gather's row count.
func (g *gather) n() int { return len(g.ids) / 8 }

// i64 reads value k of an id column; f64 and putF64 read and write value k
// of a float column.
func i64(col []byte, k int) int { return int(int64(binary.LittleEndian.Uint64(col[8*k:]))) }

func f64(col []byte, k int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(col[8*k:]))
}

func putF64(col []byte, k int, v float64) {
	binary.LittleEndian.PutUint64(col[8*k:], math.Float64bits(v))
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
	if cursor < g.n() && g.id(cursor) == id {
		return cursor, true
	}
	return sort.Find(g.n(), func(k int) int { return cmp.Compare(id, g.id(k)) })
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
