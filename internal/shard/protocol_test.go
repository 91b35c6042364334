package shard

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// wireRoundTrip packs an allocation, pushes it through encoding/json both
// ways, and unpacks it.
func wireRoundTrip(t *testing.T, jobs []cluster.Job, alloc *cluster.Allocation) gather {
	t.Helper()
	var out RoundResponse
	if err := out.pack(jobs, alloc); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	var in RoundResponse
	if err := json.Unmarshal(raw, &in); err != nil {
		t.Fatal(err)
	}
	g, err := in.columns()
	if err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	return g
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

// TestResponseValidation: columns never accepts columns that disagree.
func TestResponseValidation(t *testing.T) {
	ok := RoundResponse{NumJobs: 2, IDs: leIDs(1, 2), EffThr: le(1, 2), X: le(1, 2, 3, 4, 5, 6)}
	if g, err := ok.columns(); err != nil || g.width != 3 {
		t.Fatalf("valid response: width %d, err %v", g.width, err)
	}
	for name, r := range map[string]RoundResponse{
		"ragged ids":        {NumJobs: 2, IDs: leIDs(1, 2)[:15], EffThr: le(1, 2)},
		"num_jobs mismatch": {NumJobs: 3, IDs: leIDs(1, 2), EffThr: le(1, 2)},
		"negative num_jobs": {NumJobs: -1},
		"short eff_thr":     {NumJobs: 2, IDs: leIDs(1, 2), EffThr: le(1)},
		"long eff_thr":      {NumJobs: 2, IDs: leIDs(1, 2), EffThr: le(1, 2, 3)},
		"ragged x":          {NumJobs: 2, IDs: leIDs(1, 2), EffThr: le(1, 2), X: le(1, 2, 3)},
		"x byte tail":       {NumJobs: 2, IDs: leIDs(1, 2), EffThr: le(1, 2), X: le(1, 2, 3, 4)[:31]},
		"x without ids":     {X: le(1)},
		"descending ids":    {NumJobs: 2, IDs: leIDs(2, 1), EffThr: le(1, 2)},
		"duplicate ids":     {NumJobs: 2, IDs: leIDs(2, 2), EffThr: le(1, 2)},
		"NaN throughput":    {NumJobs: 1, IDs: leIDs(1), EffThr: le(math.NaN())},
		"Inf fraction":      {NumJobs: 1, IDs: leIDs(1), EffThr: le(1), X: le(math.Inf(1))},
	} {
		if _, err := r.columns(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWorkerResponseIsPlainJSON is the contract outside tooling relies on
// (curl, the benchmark's wire tap): a worker's raw round response is one
// JSON document that plain encoding/json decodes into RoundResponse and
// re-encodes to the same bytes, and its columns are ordinary base64 of
// little-endian values.
func TestWorkerResponseIsPlainJSON(t *testing.T) {
	b, err := NewEngine(testCluster(), EngineConfig{Policy: "price"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWorker(b, WorkerOptions{}).Handler())
	defer srv.Close()
	req := RoundRequest{Round: 1, GPUs: []float64{4, 4, 4}, Upserts: []JobSpec{
		{ID: 7, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1},
		{ID: 3, Throughput: []float64{3, 2, 1}, Weight: 1, Scale: 2},
	}}
	body, _ := json.Marshal(&req)
	httpResp, err := http.Post(srv.URL+PathRound, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil || httpResp.StatusCode != http.StatusOK {
		t.Fatalf("round: status %d, err %v, body %s", httpResp.StatusCode, err, raw)
	}

	var resp RoundResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("raw response is not plain JSON for RoundResponse: %v\n%s", err, raw)
	}
	again, err := json.Marshal(&resp)
	if err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("re-encoding changed the document (err %v):\n got %s\nwant %s", err, again, raw)
	}
	g, err := resp.columns()
	if err != nil {
		t.Fatal(err)
	}
	if resp.NumJobs != 2 || g.ids[0] != 3 || g.ids[1] != 7 || g.width != 3 || resp.Kind != "price" {
		t.Fatalf("decoded %+v / %+v", resp, g)
	}

	// The same bytes, read the way a script would.
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	ids, err := base64.StdEncoding.DecodeString(doc["ids"].(string))
	if err != nil || !bytes.Equal(ids, leIDs(3, 7)) {
		t.Fatalf("ids column is not base64 of little-endian int64s: % x (err %v)", ids, err)
	}
	eff, err := base64.StdEncoding.DecodeString(doc["eff_thr"].(string))
	if err != nil || !bytes.Equal(eff, le(g.effThr...)) {
		t.Fatalf("eff_thr column is not base64 of little-endian float64s (err %v)", err)
	}
}

// TestWorkerRejectsBadRequests: requests that would index past a short
// throughput row (or carry nonsense) are refused at the door.
func TestWorkerRejectsBadRequests(t *testing.T) {
	b, err := NewEngine(testCluster(), EngineConfig{Policy: "maxmin", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWorker(b, WorkerOptions{}).Handler()
	for name, body := range map[string]string{
		"not json":          `{"round":`,
		"short throughput":  `{"round":1,"gpus":[1,1,1],"upserts":[{"id":1,"throughput":[1,2],"scale":1,"weight":1}]}`,
		"negative scale":    `{"round":1,"gpus":[1,1,1],"upserts":[{"id":1,"throughput":[1,2,3],"scale":-1}]}`,
		"negative capacity": `{"round":1,"gpus":[1,-1,1]}`,
		"type name count":   `{"round":1,"gpus":[1,1,1],"gpu_types":["a"]}`,
	} {
		for _, path := range []string{PathRound, PathSync} {
			if path == PathSync {
				body = strings.Replace(body, `"upserts"`, `"jobs"`, 1)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s on %s: status %d, want 400", name, path, rec.Code)
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
		if coord.ring.Owner(j.ID) == 0 {
			owned++
		}
	}
	ids := make([]int, owned)
	thr := make([]float64, owned)
	for i := range ids {
		ids[i], thr[i] = i, 1
	}

	real := f.handlers[0].h.Load().(http.Handler)
	bad := func(mutate func(r *RoundResponse)) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			var rr RoundRequest
			_ = json.NewDecoder(req.Body).Decode(&rr)
			resp := RoundResponse{Round: rr.Round, NumJobs: owned, IDs: leIDs(ids...), EffThr: le(thr...)}
			mutate(&resp)
			writeJSON(rw, http.StatusOK, &resp)
		})
	}
	cases := map[string]http.Handler{
		"truncated eff_thr": bad(func(r *RoundResponse) { r.EffThr = r.EffThr[:len(r.EffThr)-8] }),
		"ragged x":          bad(func(r *RoundResponse) { r.X = le(1, 2, 3) }),
		"x byte tail":       bad(func(r *RoundResponse) { r.X = make([]byte, 8*3*owned-1) }),
		"unsorted ids":      bad(func(r *RoundResponse) { copy(r.IDs, leIDs(ids[1], ids[0])) }),
		"NaN throughput":    bad(func(r *RoundResponse) { copy(r.EffThr, le(math.NaN())) }),
		"wrong round":       bad(func(r *RoundResponse) { r.Round += 7 }),
		"wrong width":       bad(func(r *RoundResponse) { r.X = make([]byte, 8*2*owned) }),
		"num_jobs lies":     bad(func(r *RoundResponse) { r.NumJobs++ }),
		"not json": http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			_, _ = rw.Write([]byte(`{"round":1,"ids":"!!!not base64"}`))
		}),
		"oversized": http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
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
			if coord.ring.Owner(j.ID) == 0 && (!coord.LastStale()[i] || got.EffThr[i] != good.EffThr[i]) {
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
		t.Fatal("an over-limit response did not schedule a registry sync")
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
	} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("metrics export lacks %s", series)
		}
	}
}

// seedResponses are well-formed and subtly broken gather documents.
func seedResponses() [][]byte {
	valid, _ := json.Marshal(&RoundResponse{
		Round: 3, NumJobs: 2, SolveMs: 1.5, IDs: leIDs(4, 9), EffThr: le(0.5, 2),
		X: le(0.1, 0.2, 0.3, 0.4, 0.5, 0.6), Kind: "price", Stats: json.RawMessage(`{"rounds":3}`),
	})
	empty, _ := json.Marshal(&RoundResponse{Round: 1})
	noX, _ := json.Marshal(&RoundResponse{Round: 2, NumJobs: 1, IDs: leIDs(5), EffThr: le(3)})
	return [][]byte{
		valid, empty, noX,
		bytes.Replace(valid, []byte(`"num_jobs":2`), []byte(`"num_jobs":3`), 1),
		bytes.Replace(valid, []byte(`"eff_thr":"`), []byte(`"eff_thr":"AAAA`), 1),
		[]byte(`{"round":1,"num_jobs":1,"ids":"AQAAAAAAAAA=","eff_thr":"AAAAAAAA+H8="}`), // NaN
		[]byte(`{"ids":[1,2,3]}`), []byte(`{"ids":"*"}`), []byte(`null`), []byte(`[]`), {},
	}
}

// FuzzRoundResponse: the gather decoder never panics, and whatever it
// accepts is self-consistent — one throughput and one row per id, ids
// strictly ascending, every value finite.
func FuzzRoundResponse(f *testing.F) {
	for _, seed := range seedResponses() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp RoundResponse
		if json.Unmarshal(data, &resp) != nil {
			return
		}
		g, err := resp.columns()
		if err != nil {
			return
		}
		n := len(g.ids)
		if resp.NumJobs != n || len(g.effThr) != n || len(g.x) != n*g.width {
			t.Fatalf("accepted inconsistent columns: num_jobs %d, %d ids, %d throughputs, %d fractions at width %d",
				resp.NumJobs, n, len(g.effThr), len(g.x), g.width)
		}
		for k := 1; k < n; k++ {
			if g.ids[k] <= g.ids[k-1] {
				t.Fatalf("accepted ids out of order at %d", k)
			}
		}
		for _, v := range append(append([]float64(nil), g.effThr...), g.x...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %v", v)
			}
		}
		for k, id := range g.ids {
			if at, ok := g.find(id, 0); !ok || at != k {
				t.Fatalf("find(%d) = %d, %v; want row %d", id, at, ok, k)
			}
		}
	})
}

// FuzzRoundRequest: the worker answers any request body — valid, hostile,
// or garbage — with a status, never a panic, and a 200 always carries a
// response the coordinator's own decoder accepts.
func FuzzRoundRequest(f *testing.F) {
	valid, _ := json.Marshal(&RoundRequest{Round: 1, GPUs: []float64{2, 2, 2}, Upserts: []JobSpec{
		{ID: 1, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1, NumSteps: 10, Priority: 1},
		{ID: 2, Throughput: []float64{2, 1, 1}, Weight: 2, Scale: 2, NumSteps: 10, Priority: 1},
	}, Removes: []int{9}})
	for _, seed := range [][]byte{
		valid,
		[]byte(`{"round":1,"gpus":[1,1,1]}`),
		[]byte(`{"round":2,"prev_round":1,"gpus":[1,1,1]}`),
		[]byte(`{"round":1,"gpus":[1,1,1],"upserts":[{"id":1,"throughput":[1]}]}`),
		[]byte(`{"round":1,"gpus":[0,0,0],"upserts":[{"id":1,"throughput":[0,0,0]}]}`),
		[]byte(`{"round":1,"gpus":[],"upserts":[{"id":1,"throughput":[]}]}`),
		[]byte(`{"round":1,"gpus":[1e308,1e308],"upserts":[{"id":-5,"throughput":[1e308,1e-320],"scale":1e308,"weight":1e-320}]}`),
		[]byte(`{"round":-1,"gpus":null,"removes":[1,1,1]}`),
		[]byte(`[]`), {},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := NewEngine(testCluster(), EngineConfig{Policy: "price"})
		if err != nil {
			t.Fatal(err)
		}
		h := NewWorker(b, WorkerOptions{}).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathRound, bytes.NewReader(data)))
		if rec.Code != http.StatusOK {
			return
		}
		var resp RoundResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v", err)
		}
		if _, err := resp.columns(); err != nil {
			t.Fatalf("200 with a response the coordinator would reject: %v", err)
		}
	})
}
