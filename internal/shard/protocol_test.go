package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// unpacked is a gather read out value by value, the way merge reads it.
type unpacked struct {
	ids    []int
	effThr []float64
	x      []float64
	width  int
}

func unpack(g gather) unpacked {
	u := unpacked{ids: make([]int, len(g.ids)/8), effThr: make([]float64, len(g.effThr)/8), x: make([]float64, len(g.x)/8), width: g.width}
	for k := range u.ids {
		u.ids[k] = g.id(k)
	}
	for k := range u.effThr {
		u.effThr[k] = f64(g.effThr, k)
	}
	for k := range u.x {
		u.x[k] = f64(g.x, k)
	}
	return u
}

// wireRoundTrip packs an allocation, pushes it through the frame encoder and
// decoder, and unpacks it.
func wireRoundTrip(t *testing.T, jobs []cluster.Job, alloc *cluster.Allocation) unpacked {
	t.Helper()
	out := RoundResponse{Wire: wireVersion}
	if err := out.pack(jobs, alloc); err != nil {
		t.Fatal(err)
	}
	raw, err := out.encode()
	if err != nil {
		t.Fatal(err)
	}
	in, err := decodeFrame(frameContentType, raw)
	if err != nil {
		t.Fatal(err)
	}
	width := 0
	if alloc != nil && alloc.X != nil {
		width = len(alloc.X[0])
	}
	g, err := in.accept(0, width)
	if err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	return unpack(g)
}

// TestWireRoundTripBitExact: every float64 bit pattern a solver can emit
// survives the gather unchanged — including the ones decimal text formats
// are most likely to disturb.
func TestWireRoundTripBitExact(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // subnormals
		math.MaxFloat64, -math.MaxFloat64, math.Nextafter(1, 2), math.Pi * 1e-300,
	}
	jobs := make([]cluster.Job, len(values))
	alloc := &cluster.Allocation{X: make([][]float64, len(values)), EffThr: make([]float64, len(values))}
	for i, v := range values {
		jobs[i].ID = 10*i - 3 // ascending, starting negative
		alloc.EffThr[i] = v
		alloc.X[i] = []float64{v, -v, values[(i+1)%len(values)]}
	}
	g := wireRoundTrip(t, jobs, alloc)
	if g.width != 3 || len(g.ids) != len(values) {
		t.Fatalf("unpacked %d ids, width %d", len(g.ids), g.width)
	}
	for i := range values {
		if g.ids[i] != jobs[i].ID {
			t.Fatalf("id %d came back as %d", jobs[i].ID, g.ids[i])
		}
		if math.Float64bits(g.effThr[i]) != math.Float64bits(alloc.EffThr[i]) {
			t.Fatalf("eff_thr %v (bits %x) came back as bits %x", alloc.EffThr[i],
				math.Float64bits(alloc.EffThr[i]), math.Float64bits(g.effThr[i]))
		}
		for k, v := range alloc.X[i] {
			if got := g.x[i*3+k]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("x[%d][%d] = %v came back as %v", i, k, v, got)
			}
		}
	}

	// An empty shard, and a policy without per-type rows.
	if g := wireRoundTrip(t, nil, nil); len(g.ids) != 0 || g.width != 0 {
		t.Fatalf("empty shard unpacked as %+v", g)
	}
	g = wireRoundTrip(t, jobs[:2], &cluster.Allocation{EffThr: []float64{1.5, 2.5}})
	if g.width != 0 || len(g.x) != 0 || g.effThr[1] != 2.5 {
		t.Fatalf("row-less allocation unpacked as %+v", g)
	}
}

// le packs values the way the wire does, for building hostile responses.
func le(vals ...float64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func leIDs(ids ...int) []byte {
	var b []byte
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return b
}

// framed puts the three columns behind r, with a header that declares
// exactly them.
func framed(r RoundResponse, ids, effThr, x []byte) *RoundResponse {
	r.Wire = wireVersion
	r.IDsBytes, r.EffThrBytes, r.XBytes = len(ids), len(effThr), len(x)
	r.frame, r.head = slices.Concat(ids, effThr, x), 0
	return &r
}

// TestResponseValidation: accept never takes columns that disagree —
// with each other, with num_jobs, or with the lengths the header declares.
func TestResponseValidation(t *testing.T) {
	ok := framed(RoundResponse{NumJobs: 2}, leIDs(1, 2), le(1, 2), le(1, 2, 3, 4, 5, 6))
	if g, err := ok.accept(0, 3); err != nil || g.width != 3 {
		t.Fatalf("valid response: width %d, err %v", g.width, err)
	}
	lie := func(mutate func(r *RoundResponse)) *RoundResponse {
		r := framed(RoundResponse{NumJobs: 2}, leIDs(1, 2), le(1, 2), le(1, 2, 3, 4, 5, 6))
		mutate(r)
		return r
	}
	for name, r := range map[string]*RoundResponse{
		"ragged ids":        framed(RoundResponse{NumJobs: 2}, leIDs(1, 2)[:15], le(1, 2), nil),
		"num_jobs mismatch": framed(RoundResponse{NumJobs: 3}, leIDs(1, 2), le(1, 2), nil),
		"negative num_jobs": framed(RoundResponse{NumJobs: -1}, nil, nil, nil),
		"short eff_thr":     framed(RoundResponse{NumJobs: 2}, leIDs(1, 2), le(1), nil),
		"long eff_thr":      framed(RoundResponse{NumJobs: 2}, leIDs(1, 2), le(1, 2, 3), nil),
		"ragged x":          framed(RoundResponse{NumJobs: 2}, leIDs(1, 2), le(1, 2), le(1, 2, 3)),
		"x byte tail":       framed(RoundResponse{NumJobs: 2}, leIDs(1, 2), le(1, 2), le(1, 2, 3, 4)[:31]),
		"x without ids":     framed(RoundResponse{}, nil, nil, le(1)),
		"descending ids":    framed(RoundResponse{NumJobs: 2}, leIDs(2, 1), le(1, 2), nil),
		"duplicate ids":     framed(RoundResponse{NumJobs: 2}, leIDs(2, 2), le(1, 2), nil),
		"NaN throughput":    framed(RoundResponse{NumJobs: 1}, leIDs(1), le(math.NaN()), nil),
		"Inf fraction":      framed(RoundResponse{NumJobs: 1}, leIDs(1), le(1), le(math.Inf(1))),

		"x declared short":     lie(func(r *RoundResponse) { r.XBytes -= 8 }), // trailing bytes
		"x declared long":      lie(func(r *RoundResponse) { r.XBytes += 8 }),
		"ids past the frame":   lie(func(r *RoundResponse) { r.IDsBytes = len(r.frame) + 8 }),
		"negative ids length":  lie(func(r *RoundResponse) { r.IDsBytes = -16; r.XBytes += 32 }),
		"lengths overflow int": lie(func(r *RoundResponse) { r.IDsBytes, r.EffThrBytes = math.MaxInt, math.MaxInt }),
		"lengths wrap to fit": lie(func(r *RoundResponse) {
			r.IDsBytes, r.EffThrBytes, r.XBytes = math.MaxInt, math.MaxInt, len(r.frame)+2
		}),
		"columns shifted": lie(func(r *RoundResponse) { r.IDsBytes += 8; r.XBytes -= 8 }),
		"wrong round":     lie(func(r *RoundResponse) { r.Round = 1 }),
		"wrong width":     framed(RoundResponse{NumJobs: 2}, leIDs(1, 2), le(1, 2), le(1, 2, 3, 4)),
	} {
		if _, err := r.accept(0, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWorkerResponseIsFramed is the wire contract of a round's answer, the
// one outside tooling (the benchmark's wire tap, a script) relies on: the
// body is a JSON header that a streaming json.Decoder reads into
// RoundResponse, stopping at the object's end, followed by exactly the
// ids_bytes + eff_thr_bytes + x_bytes bytes it declares — little-endian
// int64 ids, then float64 bit patterns. The header re-encodes to the bytes
// it came as. `curl | jq` no longer reads this internal endpoint; by hand:
// `curl -s ... | head -c 400` prints the header, and a script does what this
// test does — json.NewDecoder(body).Decode(&header), then
// io.MultiReader(dec.Buffered(), body) is positioned on the ids column
// (Python: json.JSONDecoder().raw_decode on the first KiB gives the offset).
func TestWorkerResponseIsFramed(t *testing.T) {
	b, err := NewEngine(testCluster(), EngineConfig{Policy: "price"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWorker(b, WorkerOptions{}).Handler())
	defer srv.Close()
	req := mustRequest(t, 1, 0, cluster.NewCluster(4, 4, 4), []cluster.Job{
		{ID: 3, Throughput: []float64{3, 2, 1}, Weight: 1, Scale: 2},
		{ID: 7, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1},
	}, nil)
	httpResp, err := http.Post(srv.URL+PathRound, frameContentType, bytes.NewReader(req.frame))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil || httpResp.StatusCode != http.StatusOK {
		t.Fatalf("round: status %d, err %v, body %s", httpResp.StatusCode, err, raw)
	}
	if ct := httpResp.Header.Get("Content-Type"); ct != frameContentType {
		t.Fatalf("content type %q, want %q", ct, frameContentType)
	}
	if httpResp.ContentLength != int64(len(raw)) {
		t.Fatalf("Content-Length %d for a %d-byte body", httpResp.ContentLength, len(raw))
	}

	var resp RoundResponse
	stream := bytes.NewReader(raw)
	dec := json.NewDecoder(stream)
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("the body does not begin with a JSON header for RoundResponse: %v\n%q", err, raw)
	}
	header := raw[:dec.InputOffset()]
	again, err := json.Marshal(&resp)
	if err != nil || !bytes.Equal(again, header) {
		t.Fatalf("re-encoding changed the header (err %v):\n got %s\nwant %s", err, again, header)
	}
	if resp.Wire != wireVersion || resp.NumJobs != 2 || resp.Kind != "price" || len(resp.Stats) == 0 {
		t.Fatalf("header %s", header)
	}
	cols, err := io.ReadAll(io.MultiReader(dec.Buffered(), stream))
	if err != nil || !bytes.Equal(cols, raw[len(header):]) || len(cols) != resp.IDsBytes+resp.EffThrBytes+resp.XBytes {
		t.Fatalf("%d bytes follow the header, which declares %d+%d+%d", len(cols), resp.IDsBytes, resp.EffThrBytes, resp.XBytes)
	}
	if ids := cols[:resp.IDsBytes]; !bytes.Equal(ids, leIDs(3, 7)) {
		t.Fatalf("ids column is not little-endian int64s in ascending order: % x", ids)
	}
	if resp.EffThrBytes != 16 || resp.XBytes != 48 {
		t.Fatalf("2 jobs × 3 types declared as eff_thr %d, x %d bytes", resp.EffThrBytes, resp.XBytes)
	}

	// And it is what the coordinator's reader accepts.
	in, err := decodeFrame(frameContentType, raw)
	if err != nil {
		t.Fatal(err)
	}
	g, err := in.accept(1, 3)
	if err != nil || g.id(0) != 3 || g.id(1) != 7 || g.width != 3 {
		t.Fatalf("accept: %v, %+v", err, unpack(g))
	}
	if !bytes.Equal(g.effThr, cols[16:32]) || f64(g.effThr, 0) <= 0 {
		t.Fatalf("eff_thr column % x", g.effThr)
	}
}

// mustRequest is newRequest for a test's own, well-formed batches.
func mustRequest(t testing.TB, round, prevRound int, pool cluster.Cluster, upserts []cluster.Job, removes []int) *RoundRequest {
	t.Helper()
	r, err := newRequest(round, prevRound, false, pool, upserts, removes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// relabel re-lays r's frame under its header as mutated, for building
// hostile requests out of well-formed ones.
func relabel(r *RoundRequest, mutate func(h *RoundRequest)) []byte {
	h := *r
	mutate(&h)
	head, _ := json.Marshal(&h)
	return append(head, r.frame[r.head:]...)
}

// badRequests are request bodies a worker must refuse with a 400, by name.
func badRequests(t testing.TB) map[string][]byte {
	pool := cluster.NewCluster(1, 1, 1)
	job := func(id int) cluster.Job {
		return cluster.Job{ID: id, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1, NumSteps: 10, Priority: 1}
	}
	valid := mustRequest(t, 1, 0, pool, []cluster.Job{job(1), job(2)}, []int{7, 9})
	spoil := func(mutate func(j *cluster.Job)) []byte {
		j := job(1)
		mutate(&j)
		return mustRequest(t, 1, 0, pool, []cluster.Job{j}, nil).frame
	}
	narrow := mustRequest(t, 1, 0, cluster.Cluster{NumGPUs: []float64{1, 1}}, []cluster.Job{{ID: 1, Throughput: []float64{1, 2}, Scale: 1}}, nil)
	return map[string][]byte{
		"not json":          []byte(`{"round":`),
		"JSON body":         []byte(`{"round":1,"gpus":[1,1,1],"upserts":[{"id":1,"throughput":[1,2,3],"scale":1,"weight":1}]}`),
		"wire 1":            relabel(valid, func(h *RoundRequest) { h.Wire = 1 }),
		"wire 2":            relabel(valid, func(h *RoundRequest) { h.Wire = 2 }),
		"wire 4":            relabel(valid, func(h *RoundRequest) { h.Wire = 4 }),
		"full with removes": relabel(valid, func(h *RoundRequest) { h.Full = true }),
		"big header":        append([]byte(`{"wire":3,"gpu_types":["`+strings.Repeat("a", maxHeaderBytes)+`"]}`), valid.frame[valid.head:]...),
		"short throughput":  relabel(narrow, func(h *RoundRequest) { h.GPUs = []float64{1, 1, 1} }),
		"negative scale":    spoil(func(j *cluster.Job) { j.Scale = -1 }),
		"NaN weight":        spoil(func(j *cluster.Job) { j.Weight = math.NaN() }),
		"+Inf throughput":   spoil(func(j *cluster.Job) { j.Throughput[1] = math.Inf(1) }),
		"-Inf priority":     spoil(func(j *cluster.Job) { j.Priority = math.Inf(-1) }),
		"+Inf num_steps":    spoil(func(j *cluster.Job) { j.NumSteps = math.Inf(1) }),
		"negative mem_frac": spoil(func(j *cluster.Job) { j.MemFrac = -0.5 }),
		"negative capacity": mustRequest(t, 1, 0, cluster.NewCluster(1, -1, 1), nil, nil).frame,
		"type name count":   relabel(valid, func(h *RoundRequest) { h.TypeNames = []string{"a"} }),
		"short body":        valid.frame[:len(valid.frame)-8],
		"overlong body":     append(bytes.Clone(valid.frame), 0, 0, 0, 0, 0, 0, 0, 0),
		"ids unsorted":      mustRequest(t, 1, 0, pool, []cluster.Job{job(2), job(1)}, nil).frame,
		"ids repeat":        mustRequest(t, 1, 0, pool, []cluster.Job{job(2), job(2)}, nil).frame,
		"removes repeat":    mustRequest(t, 1, 0, pool, nil, []int{4, 4}).frame,
		"removes unsorted":  mustRequest(t, 1, 0, pool, nil, []int{5, 4}).frame,
		"columns shifted":   relabel(valid, func(h *RoundRequest) { h.RemovesBytes += 8; h.IDsBytes -= 8 }),
		"ragged ids":        relabel(valid, func(h *RoundRequest) { h.RemovesBytes += 4; h.IDsBytes -= 4 }),
		"negative length":   relabel(valid, func(h *RoundRequest) { h.RemovesBytes = -16; h.IDsBytes += 16 }),
		"lengths overflow":  relabel(valid, func(h *RoundRequest) { h.RemovesBytes, h.IDsBytes = math.MaxInt-7, math.MaxInt-7 }),
		"throughput lies":   relabel(valid, func(h *RoundRequest) { h.ThroughputBytes += 8 }),
	}
}

// TestWorkerRejectsBadRequests: a request that would index past a short
// throughput row, or carries nonsense — a non-finite or negative value, ids
// out of order, lengths that do not fill the body, a full round with
// removes, a JSON body, another wire version — is refused at the door,
// before an engine sees a job; a wrong version is refused by name.
func TestWorkerRejectsBadRequests(t *testing.T) {
	b, err := NewEngine(testCluster(), EngineConfig{Policy: "maxmin", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWorker(b, WorkerOptions{}).Handler()
	for name, body := range badRequests(t) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathRound, bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
		want := map[string]string{"JSON body": "wire version 0, want 3", "wire 1": "wire version 1, want 3",
			"wire 2": "wire version 2, want 3", "wire 4": "wire version 4, want 3"}[name]
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: %s does not say %q", name, rec.Body, want)
		}
	}
	if b.Engine.NumJobs() != 0 {
		t.Fatalf("refused requests left %d jobs in the engine", b.Engine.NumJobs())
	}
}

// TestWorkerRefusesWidthChange: a delta round over a pool whose width
// differs from the held clients' — here width-3 clients, then a 2- or a
// 4-type pool — is answered 409, so the coordinator resends it full, and
// leaves the worker as it was; solving it would index past the clients'
// rows or serve an allocation over types they do not have. The full round
// at the new width relists the clients and serves.
func TestWorkerRefusesWidthChange(t *testing.T) {
	job := func(id int, thr ...float64) cluster.Job {
		return cluster.Job{ID: id, Throughput: thr, Weight: 1, Scale: 1, NumSteps: 10, Priority: 1}
	}
	held := []cluster.Job{job(1, 1, 2, 3), job(2, 3, 2, 1)}
	for _, policy := range []string{"price", "maxmin", "spacesharing"} {
		for _, width := range []int{2, 4} {
			t.Run(policy+"/width="+strconv.Itoa(width), func(t *testing.T) {
				b, err := NewEngine(testCluster(), EngineConfig{Policy: policy, K: 1})
				if err != nil {
					t.Fatal(err)
				}
				w := NewWorker(b, WorkerOptions{})
				h := w.Handler()
				post := func(body []byte) *httptest.ResponseRecorder {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathRound, bytes.NewReader(body)))
					return rec
				}
				if rec := post(mustRequest(t, 1, 0, testCluster(), held, nil).frame); rec.Code != http.StatusOK {
					t.Fatalf("round 1: status %d (%s)", rec.Code, rec.Body)
				}
				pool := cluster.Cluster{NumGPUs: slices.Repeat([]float64{12}, width)}
				relisted := make([]cluster.Job, len(held))
				for i, j := range held {
					j.Throughput = append(j.Throughput, 1)[:width]
					relisted[i] = j
				}
				for name, body := range map[string][]byte{
					"empty delta":       mustRequest(t, 2, 1, pool, nil, nil).frame,
					"delta with a join": mustRequest(t, 2, 1, pool, []cluster.Job{relisted[0], job(3, relisted[1].Throughput...)}, nil).frame,
				} {
					if rec := post(body); rec.Code != http.StatusConflict {
						t.Fatalf("%s at width %d over width-3 clients: status %d, want 409", name, width, rec.Code)
					}
					if w.LastRound() != 1 || b.Engine.NumJobs() != 2 {
						t.Fatalf("%s: a refused round left the worker at round %d holding %d clients", name, w.LastRound(), b.Engine.NumJobs())
					}
				}
				rec := post(relabel(mustRequest(t, 2, 1, pool, relisted, nil), func(h *RoundRequest) { h.Full = true }))
				if rec.Code != http.StatusOK {
					t.Fatalf("full round at width %d: status %d (%s)", width, rec.Code, rec.Body)
				}
				resp, err := decodeFrame(rec.Header().Get("Content-Type"), rec.Body.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				g, err := resp.accept(2, width)
				if err != nil {
					t.Fatalf("full round at width %d: %v", width, err)
				}
				checkAccepted(t, resp, g)
				if resp.NumJobs != 2 || b.Engine.NumJobs() != 2 {
					t.Fatalf("full round of 2 clients answered for %d; engine holds %d", resp.NumJobs, b.Engine.NumJobs())
				}
			})
		}
	}
}

// TestRequestFrameSize: a request of u upserts and d removes is its header
// plus 8·(u·(6+width) + d) bytes — ids, throughputs and five attributes a
// job, an id a remove — whatever the values, and the header does not grow
// with the batch.
func TestRequestFrameSize(t *testing.T) {
	pool := testCluster()
	rnd := rand.New(rand.NewSource(30))
	empty := mustRequest(t, 9, 8, pool, nil, nil)
	for _, tc := range []struct{ u, d int }{{0, 0}, {1, 0}, {0, 1}, {250, 250}, {5000, 17}} {
		ups := make([]cluster.Job, tc.u)
		for k := range ups {
			ups[k] = randJob(2*k, rnd)
		}
		rms := make([]int, tc.d)
		for k := range rms {
			rms[k] = 2*k + 1
		}
		r := mustRequest(t, 9, 8, pool, ups, rms)
		width := pool.NumTypes()
		if want := 8 * (tc.u*(6+width) + tc.d); len(r.frame)-r.head != want {
			t.Errorf("u=%d d=%d: %d column bytes, want %d", tc.u, tc.d, len(r.frame)-r.head, want)
		}
		if h := r.head - empty.head; h < 0 || h > 2*len(strconv.Itoa(len(r.frame))) {
			t.Errorf("u=%d d=%d: header of %d bytes, an empty batch's is %d", tc.u, tc.d, r.head, empty.head)
		}
		b, err := r.read()
		if err != nil {
			t.Fatalf("u=%d d=%d: %v", tc.u, tc.d, err)
		}
		got := b.upserts()
		if len(got) != tc.u || b.numRemoves() != tc.d {
			t.Fatalf("u=%d d=%d: read back %d upserts, %d removes", tc.u, tc.d, len(got), b.numRemoves())
		}
		for k, j := range got {
			if j.ID != ups[k].ID || !j.Equal(ups[k]) {
				t.Fatalf("u=%d d=%d: job %d read back as %+v, sent %+v", tc.u, tc.d, k, j, ups[k])
			}
		}
		for k := range tc.d {
			if b.remove(k) != rms[k] {
				t.Fatalf("u=%d d=%d: remove %d read back as %d", tc.u, tc.d, rms[k], b.remove(k))
			}
		}
	}
}

// TestMalformedGatherIsAStraggler: whatever a worker answers — truncated
// columns, mismatched lengths, unsorted ids, NaNs, the wrong round, rows of
// the wrong width, megabytes of junk — the coordinator neither panics nor
// serves it: the worker is a straggler for the round, its clients keep last
// round's rows flagged stale, and the log names the worker.
func TestMalformedGatherIsAStraggler(t *testing.T) {
	f := newFleet(t, 2, EngineConfig{Policy: "price"}, WorkerOptions{})
	var logs bytes.Buffer
	coord, err := NewCoordinator(f.urls, CoordinatorOptions{
		Log: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	active := make([]cluster.Job, 16)
	for i := range active {
		active[i] = cluster.Job{ID: i, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1, NumSteps: 1, Priority: 1}
	}
	good, err := coord.Step(active, testCluster())
	if err != nil || coord.StaleJobs() != 0 {
		t.Fatalf("healthy round: err %v, %d stale", err, coord.StaleJobs())
	}
	owned := 0
	for _, j := range active {
		if owner(j.ID, len(coord.workers)) == 0 {
			owned++
		}
	}
	ids := make([]int, owned)
	thr := make([]float64, owned)
	for i := range ids {
		ids[i], thr[i] = i, 1
	}

	real := f.handlers[0].h.Load().(http.Handler)
	// Each hostile handler answers the round asked with a well-formed frame,
	// spoiled one way: in its header or columns before encoding (mutate; the
	// header declares the columns' real lengths unless mutate declares its
	// own), or in the encoded bytes (cut bytes dropped off the end).
	type cols struct{ ids, effThr, x []byte }
	bad := func(mutate func(r *RoundResponse, c *cols), cut int) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			var rr RoundRequest
			_ = json.NewDecoder(req.Body).Decode(&rr)
			c := cols{ids: leIDs(ids...), effThr: le(thr...)}
			h := RoundResponse{Round: rr.Round, NumJobs: owned}
			mutate(&h, &c)
			lengths := [3]int{h.IDsBytes, h.EffThrBytes, h.XBytes}
			resp := framed(h, c.ids, c.effThr, c.x)
			if lengths != [3]int{} {
				resp.IDsBytes, resp.EffThrBytes, resp.XBytes = lengths[0], lengths[1], lengths[2]
			}
			out, _ := resp.encode()
			rw.Header().Set("Content-Type", frameContentType)
			_, _ = rw.Write(out[:len(out)-cut])
		})
	}
	cases := map[string]http.Handler{
		"truncated eff_thr": bad(func(_ *RoundResponse, c *cols) { c.effThr = c.effThr[:len(c.effThr)-8] }, 0),
		"ragged x":          bad(func(_ *RoundResponse, c *cols) { c.x = le(1, 2, 3) }, 0),
		"x byte tail":       bad(func(_ *RoundResponse, c *cols) { c.x = make([]byte, 8*3*owned-1) }, 0),
		"unsorted ids":      bad(func(_ *RoundResponse, c *cols) { copy(c.ids, leIDs(ids[1], ids[0])) }, 0),
		"NaN throughput":    bad(func(_ *RoundResponse, c *cols) { copy(c.effThr, le(math.NaN())) }, 0),
		"wrong round":       bad(func(r *RoundResponse, _ *cols) { r.Round += 7 }, 0),
		"wrong width":       bad(func(_ *RoundResponse, c *cols) { c.x = make([]byte, 8*2*owned) }, 0),
		"num_jobs lies":     bad(func(r *RoundResponse, _ *cols) { r.NumJobs++ }, 0),
		"truncated frame":   bad(func(_ *RoundResponse, c *cols) { c.x = make([]byte, 8*3*owned) }, 8*owned),
		"cut inside header": bad(func(*RoundResponse, *cols) {}, 16*owned+10),
		"lengths overrun": bad(func(r *RoundResponse, c *cols) {
			r.IDsBytes, r.EffThrBytes, r.XBytes = len(c.ids), len(c.effThr), 8*3*owned
		}, 0),
		"lengths underrun": bad(func(r *RoundResponse, c *cols) {
			c.x = make([]byte, 8*3*owned+8)
			r.IDsBytes, r.EffThrBytes, r.XBytes = len(c.ids), len(c.effThr), 8*3*owned
		}, 0),
		"short write": http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", frameContentType)
			rw.Header().Set("Content-Length", "4096")
			_, _ = rw.Write([]byte(`{"wire":3,"round":`))
		}),
		"not a frame": http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", frameContentType)
			_, _ = rw.Write([]byte(`{"wire":3,"round":1,"ids_bytes":"!!!"}`))
		}),
		"endless header": http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", frameContentType)
			_, _ = rw.Write([]byte(`{"wire":3,"kind":"` + strings.Repeat("a", maxHeaderBytes)))
		}),
		"oversized": http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) { // chunked: no declared length
			rw.Header().Set("Content-Type", frameContentType)
			_, _ = rw.Write(bytes.Repeat([]byte(" "), 4<<20))
		}),
		"oversized, declared": http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", frameContentType)
			rw.Header().Set("Content-Length", strconv.Itoa(4<<20))
			_, _ = rw.Write(bytes.Repeat([]byte(" "), 4<<20))
		}),
	}
	for name, h := range cases {
		mux := http.NewServeMux() // swapHandler's atomic.Value wants one concrete type
		mux.Handle("/", h)
		f.handlers[0].h.Store(mux)
		logs.Reset()
		before := coord.Status()[0].Stragglers
		got, err := coord.Step(active, testCluster())
		if err != nil {
			t.Fatalf("%s: Step failed: %v", name, err)
		}
		if coord.Status()[0].Stragglers != before+1 || !coord.Status()[0].Stale {
			t.Fatalf("%s: worker 0 not counted as a straggler: %+v", name, coord.Status()[0])
		}
		if coord.StaleJobs() != owned {
			t.Fatalf("%s: %d stale jobs, want worker 0's %d", name, coord.StaleJobs(), owned)
		}
		for i, j := range active {
			if owner(j.ID, len(coord.workers)) == 0 && (!coord.LastStale()[i] || got.EffThr[i] != good.EffThr[i]) {
				t.Fatalf("%s: job %d not served its last good row, flagged", name, j.ID)
			}
		}
		if line := logs.String(); !strings.Contains(line, "worker 0 ("+f.urls[0]+")") {
			t.Fatalf("%s: straggler log does not name the worker: %s", name, line)
		}
	}

	// Recovery. The oversized answer looked like a worker holding clients it
	// was never given, so the next round reconciles it from the registry.
	f.handlers[0].h.Store(real)
	if _, err := coord.Step(active, testCluster()); err != nil || coord.StaleJobs() != 0 {
		t.Fatalf("recovery round: err %v, %d stale", err, coord.StaleJobs())
	}
	if coord.Status()[0].Rebuilds == 0 {
		t.Fatal("an over-limit response did not schedule a full round")
	}
}

// oldRoundResponse is the one-document wire form this frame replaced:
// columns as base64 strings inside the JSON.
type oldRoundResponse struct {
	Round   int             `json:"round"`
	NumJobs int             `json:"num_jobs"`
	SolveMs float64         `json:"solve_ms"`
	IDs     []byte          `json:"ids"`
	EffThr  []byte          `json:"eff_thr"`
	X       []byte          `json:"x,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Stats   json.RawMessage `json:"stats,omitempty"`
}

// TestMixedVersionFleetFailsByName: a coordinator handed the old
// one-document form — under its old content type, or relabelled as a frame —
// or any 200 without a wire version names the version in that worker's
// straggler error instead of calling the body malformed; and the coordinator
// that preceded the frame, which read the body with json.Unmarshal, rejects a
// framed response whole rather than decoding its header as an empty shard.
func TestMixedVersionFleetFailsByName(t *testing.T) {
	old, _ := json.Marshal(&oldRoundResponse{Round: 1, NumJobs: 1, SolveMs: 0.5, IDs: leIDs(0), EffThr: le(1), X: le(1, 0, 0), Kind: "price"})
	for name, answer := range map[string]struct{ contentType, body, want string }{
		"old worker":                {"application/json", string(old), `round: wire version 0 (content type "application/json"), want 3`},
		"old form, new label":       {frameContentType, string(old), "round: wire version 0, want 3"},
		"versionless header":        {frameContentType, `{"round":1,"num_jobs":0}`, "round: wire version 0, want 3"},
		"a version-1 worker":        {frameContentType, `{"wire":1,"round":1}`, "round: wire version 1, want 3"},
		"a version-2 worker":        {frameContentType, `{"wire":2,"round":1}`, "round: wire version 2, want 3"},
		"a version from the future": {frameContentType, `{"wire":4,"round":1}`, "round: wire version 4, want 3"},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", answer.contentType)
			_, _ = rw.Write([]byte(answer.body))
		}))
		var logs bytes.Buffer
		coord, err := NewCoordinator([]string{srv.URL}, CoordinatorOptions{Log: slog.New(slog.NewTextHandler(&logs, nil))})
		if err != nil {
			t.Fatal(err)
		}
		coord.Upsert(cluster.Job{ID: 0, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1})
		if _, _, err := coord.Allocate(testCluster()); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if want := "worker 0 (" + srv.URL + "): " + answer.want; coord.StaleJobs() != 1 || !strings.Contains(strings.ReplaceAll(logs.String(), `\"`, `"`), want) {
			t.Errorf("%s: %d stale jobs; log %s\nwant it to say %s", name, coord.StaleJobs(), logs.String(), want)
		}
	}

	resp := RoundResponse{Wire: wireVersion, Round: 1}
	if err := resp.pack([]cluster.Job{{ID: 0}}, &cluster.Allocation{EffThr: []float64{1}, X: [][]float64{{1, 0, 0}}}); err != nil {
		t.Fatal(err)
	}
	frame, _ := resp.encode()
	var got oldRoundResponse
	if err := json.Unmarshal(frame, &got); err == nil {
		t.Fatalf("a pre-frame coordinator would decode a frame as %+v", got)
	}
}

// blockedWriter is a ResponseWriter whose Write parks, holding the caller's
// slice, until released — a response still on its way out.
type blockedWriter struct {
	*httptest.ResponseRecorder
	writing, release chan struct{}
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	close(w.writing)
	<-w.release
	return w.ResponseRecorder.Write(p)
}

// TestOverlappingRoundsKeepTheirFrames: handleRound writes after round has
// released the worker's lock, and a worker the coordinator wrote off as a
// straggler can still be writing round r when round r+1 arrives. The frame
// being written must not be repacked under that write: round r's bytes go
// out as round r's, whatever the worker has done since (run with -race).
func TestOverlappingRoundsKeepTheirFrames(t *testing.T) {
	b, err := NewEngine(testCluster(), EngineConfig{Policy: "price"})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWorker(b, WorkerOptions{}).Handler()
	request := func(round int, upserts ...cluster.Job) *http.Request {
		body := mustRequest(t, round, round-1, cluster.NewCluster(4, 4, 4), upserts, nil).frame
		return httptest.NewRequest(http.MethodPost, PathRound, bytes.NewReader(body))
	}
	spec := func(id int) cluster.Job {
		return cluster.Job{ID: id, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1}
	}

	slow := &blockedWriter{httptest.NewRecorder(), make(chan struct{}), make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(slow, request(1, spec(1), spec(2)))
	}()
	<-slow.writing
	for round := 2; round <= 4; round++ { // the worker moves on: more clients, other rows
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, request(round, spec(10*round), spec(10*round+1)))
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, rec.Code, rec.Body)
		}
	}
	close(slow.release)
	<-done

	resp, err := decodeFrame(slow.Header().Get("Content-Type"), slow.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	g, err := resp.accept(1, 3)
	if err != nil || len(g.ids)/8 != 2 || g.id(0) != 1 || g.id(1) != 2 {
		t.Fatalf("round 1's answer, written late, is no longer round 1's: %v, header %+v", err, resp)
	}
}

// roundSpans collects the spans of one traced round by name.
func spanCounts(tr *obs.Trace) map[string]int {
	counts := map[string]int{}
	for _, e := range tr.Events() {
		counts[e.Name]++
	}
	return counts
}

// TestRoundPhaseSpans: a traced round shows where its time went on both
// sides of the wire — diff/encode/decode/merge under shard.round, and
// apply/solve/extract/encode under each worker's shard.worker.round — and
// the same phases reach the metrics export.
func TestRoundPhaseSpans(t *testing.T) {
	workerTrace, workerReg := obs.NewTrace(), obs.NewRegistry()
	f := newFleet(t, 2, EngineConfig{Policy: "price"},
		WorkerOptions{Obs: &obs.Observer{Trace: workerTrace, Metrics: workerReg}})
	tr, reg := obs.NewTrace(), obs.NewRegistry()
	coord, err := NewCoordinator(f.urls, CoordinatorOptions{Obs: &obs.Observer{Trace: tr, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	active := []cluster.Job{
		{ID: 1, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1},
		{ID: 2, Throughput: []float64{3, 2, 1}, Weight: 1, Scale: 1},
		{ID: 3, Throughput: []float64{2, 2, 2}, Weight: 1, Scale: 1},
	}
	if _, err := coord.Step(active, testCluster()); err != nil {
		t.Fatal(err)
	}

	got := spanCounts(tr)
	for name, want := range map[string]int{
		"shard.round": 1, "shard.diff": 1, "shard.merge": 1,
		"shard.gather": 2, "shard.encode": 2, "shard.decode": 2,
	} {
		if got[name] != want {
			t.Errorf("coordinator trace has %d %q spans, want %d (all: %v)", got[name], name, want, got)
		}
	}
	var round obs.Event
	for _, e := range tr.Events() {
		if e.Name == "shard.round" {
			round = e
		}
	}
	for _, e := range tr.Events() {
		if e.Name != "shard.round" && !round.Contains(e) {
			t.Errorf("span %q is not nested under shard.round", e.Name)
		}
	}
	got = spanCounts(workerTrace)
	for _, name := range []string{"shard.worker.round", "shard.worker.apply", "shard.worker.solve", "shard.worker.extract", "shard.worker.encode"} {
		if got[name] != 2 {
			t.Errorf("worker trace has %d %q spans, want one per worker (all: %v)", got[name], name, got)
		}
	}

	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	workerReg.WritePrometheus(&prom)
	for _, series := range []string{
		`pop_shard_phase_seconds_count{phase="diff"} 1`,
		`pop_shard_phase_seconds_count{phase="decode"} 2`,
		`pop_shard_phase_seconds_count{phase="merge"} 1`,
		`pop_shard_worker_phase_seconds_count{phase="solve"} 2`,
		`pop_shard_worker_phase_seconds_count{phase="encode"} 2`,
		`pop_shard_response_bytes_count 2`,
		`pop_shard_request_bytes_count 2`,
	} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("metrics export lacks %s", series)
		}
	}
}

// seedResponses are well-formed and subtly broken round response bodies.
func seedResponses() [][]byte {
	body := func(r *RoundResponse) []byte {
		out, _ := r.encode()
		return out
	}
	full := func() *RoundResponse {
		return framed(RoundResponse{Round: 3, NumJobs: 2, SolveMs: 1.5, Kind: "price", Stats: json.RawMessage(`{"rounds":3}`)},
			leIDs(4, 9), le(0.5, 2), le(0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
	}
	valid := body(full())
	lie := func(mutate func(r *RoundResponse)) []byte {
		r := full()
		mutate(r)
		return body(r)
	}
	return [][]byte{
		valid,
		body(framed(RoundResponse{Round: 1}, nil, nil, nil)),
		body(framed(RoundResponse{Round: 2, NumJobs: 1}, leIDs(5), le(3), nil)),
		bytes.Replace(valid, []byte(`"num_jobs":2`), []byte(`"num_jobs":3`), 1),
		valid[:len(valid)-20],                  // truncated columns
		append(bytes.Clone(valid), 0, 0, 0, 0), // trailing bytes after the last column
		body(framed(RoundResponse{Round: 1, NumJobs: 1}, leIDs(1), le(math.NaN()), nil)),
		body(framed(RoundResponse{Round: 1, NumJobs: 1}, leIDs(1), le(1), le(math.Inf(-1)))),
		body(framed(RoundResponse{Round: 1, NumJobs: 2}, leIDs(9, 4), le(1, 2), nil)),            // non-ascending ids
		body(framed(RoundResponse{Round: 1, NumJobs: 2}, leIDs(4, 9), le(1, 2), le(1, 2, 3, 4))), // width ≠ pool
		lie(func(r *RoundResponse) { r.XBytes = -48; r.IDsBytes += 96 }),
		lie(func(r *RoundResponse) { r.IDsBytes, r.EffThrBytes = math.MaxInt, math.MaxInt }),
		lie(func(r *RoundResponse) { r.XBytes += 1 << 20 }), // lengths sum past the body
		bytes.Replace(valid, []byte(`"ids_bytes":16`), []byte(`"ids_bytes":92233720368547758070`), 1),
		bytes.Replace(valid, []byte(`"wire":3`), []byte(`"wire":4`), 1),
		[]byte(`{"wire":3,"kind":"` + strings.Repeat("a", 1<<20) + `"}`), // a 1 MB "header"
		// The one-document form this frame replaced.
		[]byte(`{"round":1,"num_jobs":1,"ids":"AQAAAAAAAAA=","eff_thr":"AAAAAAAA+H8="}`),
		[]byte(`{"ids":[1,2,3]}`), []byte(`null`), []byte(`[]`), {},
	}
}

// checkAccepted holds whatever the coordinator's reader accepted to being
// self-consistent: one throughput and one row per id, ids strictly
// ascending, every value finite, every id findable.
func checkAccepted(t *testing.T, resp *RoundResponse, g gather) {
	t.Helper()
	u := unpack(g)
	n := len(u.ids)
	if resp.NumJobs != n || len(u.effThr) != n || len(u.x) != n*u.width {
		t.Fatalf("accepted inconsistent columns: num_jobs %d, %d ids, %d throughputs, %d fractions at width %d",
			resp.NumJobs, n, len(u.effThr), len(u.x), u.width)
	}
	for k := 1; k < n; k++ {
		if u.ids[k] <= u.ids[k-1] {
			t.Fatalf("accepted ids out of order at %d", k)
		}
	}
	for _, v := range append(u.effThr, u.x...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("accepted non-finite value %v", v)
		}
	}
	for k, id := range u.ids {
		if at, ok := g.find(id, 0); !ok || at != k {
			t.Fatalf("find(%d) = %d, %v; want row %d", id, at, ok, k)
		}
	}
}

// FuzzRoundResponse: the frame reader — header decode, then accept, as the
// coordinator runs them on a body — never panics, and whatever it accepts
// is self-consistent and of the pool's width.
func FuzzRoundResponse(f *testing.F) {
	for _, seed := range seedResponses() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeFrame(frameContentType, data)
		if err != nil {
			return
		}
		g, err := resp.accept(resp.Round, 3)
		if err != nil {
			return
		}
		if g.width != 0 && g.width != 3 {
			t.Fatalf("accepted rows of width %d into a pool of 3 types", g.width)
		}
		if got := len(g.ids) + len(g.effThr) + len(g.x); got != len(data)-resp.head {
			t.Fatalf("accepted %d column bytes out of the %d behind the header", got, len(data)-resp.head)
		}
		checkAccepted(t, resp, g)
	})
}

// requestSeeds are well-formed and hostile request bodies, in a fixed order.
func requestSeeds(t testing.TB) [][]byte {
	job := func(id int, thr ...float64) cluster.Job {
		return cluster.Job{ID: id, Throughput: thr, Weight: 1, Scale: 1, NumSteps: 10, Priority: 1}
	}
	full := func(h *RoundRequest) { h.Full = true }
	pool := cluster.NewCluster(2, 2, 2)
	seeds := [][]byte{
		mustRequest(t, 1, 0, pool, []cluster.Job{job(1, 1, 2, 3), job(2, 2, 1, 1)}, []int{9}).frame,
		mustRequest(t, 1, 0, pool, nil, nil).frame,
		mustRequest(t, 2, 1, pool, []cluster.Job{job(4, 1, 1, 1)}, nil).frame, // behind: 409
		mustRequest(t, 1, 0, cluster.NewCluster(0, 0, 0), []cluster.Job{job(1, 0, 0, 0)}, nil).frame,
		mustRequest(t, 1, 0, cluster.Cluster{}, []cluster.Job{job(1)}, nil).frame,
		mustRequest(t, 1, 0, cluster.Cluster{NumGPUs: []float64{1e308, 1e308}}, []cluster.Job{
			{ID: -5, Throughput: []float64{1e308, 1e-320}, Scale: 1e308, Weight: 1e-320}}, nil).frame,
		mustRequest(t, -1, 0, cluster.Cluster{TypeNames: []string{"a", "b"}, NumGPUs: []float64{1, 1}}, nil, []int{-3, 1, 2}).frame,
	}
	bad := badRequests(t)
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		seeds = append(seeds, bad[name])
	}
	return append(seeds, []byte(`null`), []byte(`[]`), nil,
		// Full rounds over a worker holding fuzzHeld: keep 3 and drop 8;
		// keep 8 and drop 3, past the PrevRound a delta would be refused
		// at; drop both; refuse a remove.
		relabel(mustRequest(t, 1, 0, pool, []cluster.Job{job(1, 1, 2, 3), job(3, 2, 2, 2)}, nil), full),
		relabel(mustRequest(t, 5, 4, pool, []cluster.Job{job(8, 1, 1, 1)}, nil), full),
		relabel(mustRequest(t, 1, 0, pool, nil, nil), full),
		relabel(mustRequest(t, 1, 0, pool, []cluster.Job{job(1, 1, 2, 3)}, []int{8}), full))
}

// fuzzHeld are the ids a fuzzed worker holds before the body arrives, so a
// full round has clients to keep and clients to drop.
var fuzzHeld = []int{3, 8}

// fuzzRequest: the worker answers any body — valid, hostile, or garbage —
// with a status, never a panic; a 400 exactly when the request reader
// refuses the body (a full round with removes included); and a 200 carries
// a frame the coordinator's accept takes, after which a full round leaves
// the worker holding exactly the clients it listed. With rebuild, every
// body whose header decodes is sent marked full, as a coordinator rebuilds
// a worker.
func fuzzRequest(f *testing.F, rebuild bool) {
	for _, seed := range requestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err == nil && rebuild {
			data = relabel(req, func(h *RoundRequest) { h.Full = true })
			if req, err = decodeRequest(data); err == nil && !req.Full {
				t.Fatalf("a relabelled header decodes as a delta round")
			}
		}
		var in batch
		if err == nil {
			in, err = req.read()
		}
		// The worker holds clients of a fixed width, committed by a round
		// over its own pool; a delta round of another width is refused with
		// a 409, a full one relists them at its own.
		pool := testCluster()
		b, engErr := NewEngine(pool, EngineConfig{Policy: "price"})
		if engErr != nil {
			t.Fatal(engErr)
		}
		held := make([]cluster.Job, len(fuzzHeld))
		for i, id := range fuzzHeld {
			held[i] = cluster.Job{ID: id, Throughput: slices.Repeat([]float64{1}, pool.NumTypes()), Weight: 1, Scale: 1, NumSteps: 10, Priority: 1}
		}
		w := NewWorker(b, WorkerOptions{})
		if _, err := w.round(mustRequest(t, 0, 0, pool, held, nil)); err != nil {
			t.Fatalf("committing the held clients: %v", err)
		}
		h := w.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathRound, bytes.NewReader(data)))

		if (rec.Code == http.StatusBadRequest) != (err != nil) {
			t.Fatalf("status %d (%s) for a body the reader judges %v", rec.Code, rec.Body, err)
		}
		if rec.Code != http.StatusOK {
			return
		}
		resp, err := decodeFrame(rec.Header().Get("Content-Type"), rec.Body.Bytes())
		if err != nil {
			t.Fatalf("200 with an undecodable body: %v", err)
		}
		g, err := resp.accept(req.Round, len(req.GPUs))
		if err != nil {
			t.Fatalf("200 with a response the coordinator would reject: %v", err)
		}
		checkAccepted(t, resp, g)
		if listed := len(in.ids) / 8; req.Full && (resp.NumJobs != listed || b.Engine.NumJobs() != listed) {
			t.Fatalf("full round of %d clients answered for %d; engine holds %d", listed, resp.NumJobs, b.Engine.NumJobs())
		}
	})
}

func FuzzRoundRequest(f *testing.F) { fuzzRequest(f, false) }

// FuzzSyncRequest: re-syncing a worker's registry, which a full round does,
// holds up under every body FuzzRoundRequest sends.
func FuzzSyncRequest(f *testing.F) { fuzzRequest(f, true) }
