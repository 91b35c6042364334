package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pop/internal/cluster"
	"pop/internal/online"
	"pop/internal/shard"
)

// doAuth is do with an optional bearer token and tenant header.
func doAuth(t *testing.T, method, url, token, tenant string, body any, wantCode int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		shard.Token(token).Set(req)
	}
	if tenant != "" {
		req.Header.Set("X-Pop-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: status %d, want %d (%s)", method, url, resp.StatusCode, wantCode, raw)
	}
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	return out
}

// TestServerAuthToken: with -auth-token set, every mutating endpoint demands
// the bearer token while reads and probes stay open.
func TestServerAuthToken(t *testing.T) {
	const token = "popserver-secret"
	s, err := newServer(cluster.NewCluster(4, 4, 4),
		serverConfig{policy: "maxmin", opts: online.Options{K: 2}, authToken: token}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	spec := jobSpec{ID: 1, Throughput: []float64{1, 2, 3}}
	doAuth(t, "POST", ts.URL+"/v1/jobs", "", "", spec, http.StatusUnauthorized)
	doAuth(t, "POST", ts.URL+"/v1/jobs", "wrong", "", spec, http.StatusUnauthorized)
	doAuth(t, "POST", ts.URL+"/v1/tick", "", "", nil, http.StatusUnauthorized)
	doAuth(t, "DELETE", ts.URL+"/v1/jobs/1", "", "", nil, http.StatusUnauthorized)
	doAuth(t, "PUT", ts.URL+"/v1/cluster", "", "", clusterSpec{GPUs: []float64{4, 4, 4}}, http.StatusUnauthorized)

	doAuth(t, "POST", ts.URL+"/v1/jobs", token, "", spec, http.StatusAccepted)
	doAuth(t, "POST", ts.URL+"/v1/tick", token, "", nil, http.StatusOK)

	// Reads never need the token.
	doAuth(t, "GET", ts.URL+"/v1/allocation", "", "", nil, http.StatusOK)
	doAuth(t, "GET", ts.URL+"/v1/stats", "", "", nil, http.StatusOK)
	doAuth(t, "GET", ts.URL+"/healthz", "", "", nil, http.StatusOK)
}

// TestServerTenantQuota: per-tenant submissions are capped per round; the
// window resets at the tick and tenants are isolated from each other.
func TestServerTenantQuota(t *testing.T) {
	s, err := newServer(cluster.NewCluster(4, 4, 4),
		serverConfig{policy: "maxmin", opts: online.Options{K: 1}, quota: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	for id := 0; id < 3; id++ {
		doAuth(t, "POST", ts.URL+"/v1/jobs", "", "", jobSpec{ID: id, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)
	}
	out := doAuth(t, "POST", ts.URL+"/v1/jobs", "", "", jobSpec{ID: 3, Throughput: []float64{1, 2, 3}}, http.StatusTooManyRequests)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "over quota") {
		t.Fatalf("429 body %v does not explain the quota", out)
	}

	// A different tenant has its own window.
	doAuth(t, "POST", ts.URL+"/v1/jobs", "", "team-b", jobSpec{ID: 10, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)

	// A batch that would cross the line is rejected whole.
	batch := []jobSpec{
		{ID: 11, Throughput: []float64{1, 2, 3}},
		{ID: 12, Throughput: []float64{1, 2, 3}},
		{ID: 13, Throughput: []float64{1, 2, 3}},
	}
	doAuth(t, "POST", ts.URL+"/v1/jobs", "", "team-b", batch, http.StatusTooManyRequests)

	// The tick opens a fresh quota window.
	doAuth(t, "POST", ts.URL+"/v1/tick", "", "", nil, http.StatusOK)
	doAuth(t, "POST", ts.URL+"/v1/jobs", "", "", jobSpec{ID: 3, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)

	// The rejections are visible in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "pop_quota_rejections_total 2") {
		t.Fatal("metrics missing pop_quota_rejections_total 2")
	}
}

// TestServerBatchSubmit: one POST with a JSON array queues every spec, and a
// batch with one bad spec is rejected atomically.
func TestServerBatchSubmit(t *testing.T) {
	_, ts := newTestServer(t)
	batch := make([]jobSpec, 20)
	for i := range batch {
		batch[i] = jobSpec{ID: i, Throughput: []float64{1, 2, 3 + float64(i%3)}}
	}
	out := do(t, "POST", ts.URL+"/v1/jobs", batch, http.StatusAccepted)
	if got := out["accepted"].(float64); got != 20 {
		t.Fatalf("batch accepted %g specs, want 20", got)
	}
	tick := do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 20 {
		t.Fatalf("round saw %g jobs, want 20", got)
	}

	bad := []jobSpec{
		{ID: 100, Throughput: []float64{1, 2, 3}},
		{ID: 101, Throughput: []float64{1, 2}}, // wrong arity
	}
	do(t, "POST", ts.URL+"/v1/jobs", bad, http.StatusBadRequest)
	tick = do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 20 {
		t.Fatalf("rejected batch leaked jobs into the round: %g, want 20", got)
	}
}

// fileRound reads the round a -state-file was written at.
func fileRound(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		LastRound int `json:"last_round"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st.LastRound
}

// TestServerStateFileRestart: a server restarted with its -state-file picks
// up at the saved round with the engine's warm state intact. The shutdown
// save follows a burst of ticks with no pause, so background checkpoints of
// earlier rounds are still in flight when it runs: the file must end up
// holding the final round, not whichever write renamed last.
func TestServerStateFileRestart(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "popserver.state")
	cfg := serverConfig{policy: "maxmin", opts: online.Options{K: 2}, stateFile: stateFile}
	c := cluster.NewCluster(4, 4, 4)

	s1, b1 := newEngineServer(t, c, cfg)
	ts1 := httptest.NewServer(s1.handler())
	for id := 0; id < 8; id++ {
		do(t, "POST", ts1.URL+"/v1/jobs", jobSpec{ID: id, Throughput: []float64{1, 2, 3 + float64(id%3)}}, http.StatusAccepted)
	}
	const rounds = 12
	for r := 0; r < rounds; r++ {
		if _, err := s1.tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.saveState(); err != nil {
		t.Fatal(err)
	}
	if got := fileRound(t, stateFile); got != rounds {
		t.Fatalf("state file holds round %d after the shutdown save, want the final round %d", got, rounds)
	}
	before := do(t, "GET", ts1.URL+"/v1/allocation", nil, http.StatusOK)
	ts1.Close()

	s2, b2 := newEngineServer(t, c, cfg)
	ts2 := httptest.NewServer(s2.handler())
	t.Cleanup(ts2.Close)

	// The restored server resumes at the saved round stamp...
	resp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Pop-Round"); got != strconv.Itoa(rounds) {
		t.Fatalf("restored server at round %q, want %d", got, rounds)
	}
	// ...with the engine's jobs and counters, so the first tick needs no
	// resubmission and continues the round sequence.
	donorStats := b1.Stats().(online.Stats)
	if got := b2.Stats().(online.Stats); got != donorStats {
		t.Fatalf("restored engine stats %+v, want %+v", got, donorStats)
	}
	tick := do(t, "POST", ts2.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["round"].(float64); got != rounds+1 {
		t.Fatalf("first tick after restore is round %g, want %d", got, rounds+1)
	}
	if got := tick["num_jobs"].(float64); got != 8 {
		t.Fatalf("restored round has %g jobs, want 8", got)
	}
	if got := tick["stale_jobs"].(float64); got != 0 {
		t.Fatalf("restored round served %g jobs stale", got)
	}
	after := do(t, "GET", ts2.URL+"/v1/allocation", nil, http.StatusOK)
	beforeJobs := before["jobs"].(map[string]any)
	afterJobs := after["jobs"].(map[string]any)
	for id, raw := range beforeJobs {
		wantThr := raw.(map[string]any)["effective_throughput"].(float64)
		gotJA, ok := afterJobs[id].(map[string]any)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if gotThr := gotJA["effective_throughput"].(float64); math.Abs(gotThr-wantThr) > 1e-6 {
			t.Fatalf("job %s reallocated after restart: %g -> %g", id, wantThr, gotThr)
		}
	}
	// The barrier a shutdown uses: waits out the tick's background
	// checkpoint, so nothing writes into the temp dir while it is removed.
	if err := s2.saveState(); err != nil {
		t.Fatal(err)
	}
}

// TestServerStateFileCompat: a -state-file is applied whole or rejected
// whole. The fixture was written by the last single-process server that kept
// its own envelope ({"round":N,"engine":…}); it is the only copy of that
// server's client set, so it must still restore jobs and round. A garbled
// envelope, or an engine snapshot the engine rejects, leaves worker,
// registry, and round all empty — never the jobs at round 0.
func TestServerStateFileCompat(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "single_process_v15.state"))
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		file        []byte
		round, jobs int
	}{
		"legacy envelope":  {legacy, 3, 5},
		"garbled envelope": {legacy[:len(legacy)/2], 0, 0},
		"round not a number": {
			bytes.Replace(legacy, []byte(`{"round":3,`), []byte(`{"round":"three",`), 1), 0, 0},
		"engine rejects snapshot": {
			bytes.Replace(legacy, []byte(`"partitions":[[0,2,4],[1,3]]`), []byte(`"partitions":[[0,2,4],[1,7]]`), 1), 0, 0},
		"wrong policy": {
			bytes.Replace(legacy, []byte(`"policy":"max-min-fairness"`), []byte(`"policy":"min-makespan"`), 1), 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			stateFile := filepath.Join(t.TempDir(), "popserver.state")
			if err := os.WriteFile(stateFile, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			s, b := newEngineServer(t, cluster.NewCluster(4, 4, 4),
				serverConfig{policy: "maxmin", opts: online.Options{K: 2}, stateFile: stateFile})
			if got := b.Engine.NumJobs(); got != tc.jobs {
				t.Fatalf("worker engine holds %d jobs, want %d", got, tc.jobs)
			}
			if got := s.coord.NumJobs(); got != tc.jobs {
				t.Fatalf("registry holds %d jobs, want %d", got, tc.jobs)
			}
			if got := s.coord.Round(); got != tc.round {
				t.Fatalf("coordinator at round %d, want %d", got, tc.round)
			}
			snap, err := s.tick()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Round != tc.round+1 || snap.NumJobs != tc.jobs || snap.StaleJobs != 0 {
				t.Fatalf("first tick: round %d, %d jobs, %d stale; want round %d, %d jobs, none stale",
					snap.Round, snap.NumJobs, snap.StaleJobs, tc.round+1, tc.jobs)
			}
			if ws := s.coord.Status()[0]; ws.Rebuilds != 0 || ws.Jobs != tc.jobs {
				t.Fatalf("first tick needed a rebuild or lost jobs: %+v", ws)
			}
			if err := s.saveState(); err != nil {
				t.Fatal(err)
			}
			if got := fileRound(t, stateFile); got != tc.round+1 {
				t.Fatalf("re-saved file holds last_round %d, want %d", got, tc.round+1)
			}
		})
	}
}

// flakyEngine fails its rounds on demand.
type flakyEngine struct {
	shard.Engine
	fail atomic.Bool
}

func (e *flakyEngine) Allocate(c cluster.Cluster) ([]cluster.Job, *cluster.Allocation, error) {
	if e.fail.Load() {
		return nil, nil, errors.New("solver exploded")
	}
	return e.Engine.Allocate(c)
}

// TestServerLocalEngineErrorServesStale: the in-process worker fails the way
// a remote one does. Its engine returning an error costs the round's clients
// a stale row — the tick still answers 200 — and the mutation batch stays
// queued, so the next healthy tick is fresh and has applied it.
func TestServerLocalEngineErrorServesStale(t *testing.T) {
	flaky := &flakyEngine{}
	s, err := newServerWith(cluster.NewCluster(4, 4, 4), serverConfig{policy: "maxmin", opts: online.Options{K: 2}}, nil,
		func(c cluster.Cluster, ec shard.EngineConfig) (*shard.EngineBundle, error) {
			b, err := shard.NewEngine(c, ec)
			if err == nil {
				flaky.Engine, b.Engine = b.Engine, flaky
			}
			return b, err
		})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	for id := 0; id < 4; id++ {
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: id, Throughput: []float64{1, 2, 3 + float64(id)}}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	fresh := do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)["jobs"].(map[string]any)

	flaky.fail.Store(true)
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 9, Throughput: []float64{2, 2, 2}}, http.StatusAccepted)
	tick := do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if tick["round"].(float64) != 2 || tick["num_jobs"].(float64) != 5 || tick["stale_jobs"].(float64) != 5 {
		t.Fatalf("failed round answered %v, want round 2 with all 5 jobs stale", tick)
	}
	served := do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)["jobs"].(map[string]any)
	if len(served) != 5 {
		t.Fatalf("failed round served %d rows, want 5", len(served))
	}
	for id, v := range served {
		ja := v.(map[string]any)
		if stale, _ := ja["stale"].(bool); !stale {
			t.Fatalf("job %s not flagged stale after its worker's engine failed", id)
		}
		want := 0.0 // job 9 has never been allocated
		if prev, ok := fresh[id].(map[string]any); ok {
			want = prev["effective_throughput"].(float64)
		}
		if got := ja["effective_throughput"].(float64); got != want {
			t.Fatalf("job %s stale row is %g, want last round's %g", id, got, want)
		}
	}
	metrics := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	if body := metrics(); !strings.Contains(body, "pop_shard_stragglers_total 1") {
		t.Fatalf("failed round did not book one straggler:\n%s", body)
	}

	flaky.fail.Store(false)
	tick = do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if tick["round"].(float64) != 3 || tick["num_jobs"].(float64) != 5 || tick["stale_jobs"].(float64) != 0 {
		t.Fatalf("recovery round answered %v, want round 3 with 5 fresh jobs", tick)
	}
	for id, v := range do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)["jobs"].(map[string]any) {
		ja := v.(map[string]any)
		if stale, _ := ja["stale"].(bool); stale || ja["effective_throughput"].(float64) <= 0 {
			t.Fatalf("job %s not served fresh after recovery: %v", id, ja)
		}
	}
	ws := s.coord.Status()[0]
	if ws.Stragglers != 1 || ws.Rebuilds != 0 || ws.Jobs != 5 {
		t.Fatalf("worker after recovery: %+v, want one straggle, no rebuild, 5 jobs", ws)
	}
	if body := metrics(); !strings.Contains(body, "pop_shard_stragglers_total 1") {
		t.Fatal("recovery round booked another straggler")
	}
}

// TestServerShardedEndToEnd: popserver in coordinator mode over two live
// shard workers — the full client-facing surface (submit, tick, allocation,
// stats, metrics) backed by scatter/gather rounds.
func TestServerShardedEndToEnd(t *testing.T) {
	const token = "fleet-secret"
	var workerURLs []string
	for i := 0; i < 2; i++ {
		b, err := shard.NewEngine(cluster.NewCluster(4, 4, 4), shard.EngineConfig{Policy: "maxmin", K: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := shard.NewWorker(b, shard.WorkerOptions{Token: token})
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		workerURLs = append(workerURLs, ws.URL)
	}

	s, err := newServer(cluster.NewCluster(4, 4, 4), serverConfig{
		workers:   workerURLs,
		deadline:  5 * time.Second,
		authToken: token,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	for id := 0; id < 10; id++ {
		doAuth(t, "POST", ts.URL+"/v1/jobs", token, "",
			jobSpec{ID: id, Throughput: []float64{1, 2, 3 + float64(id%4)}}, http.StatusAccepted)
	}
	tick := doAuth(t, "POST", ts.URL+"/v1/tick", token, "", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 10 {
		t.Fatalf("sharded round saw %g jobs, want 10", got)
	}
	if got := tick["stale_jobs"].(float64); got != 0 {
		t.Fatalf("healthy fleet produced %g stale jobs", got)
	}

	alloc := do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)
	served := alloc["jobs"].(map[string]any)
	if len(served) != 10 {
		t.Fatalf("allocation has %d jobs, want 10", len(served))
	}
	for id, v := range served {
		ja := v.(map[string]any)
		if thr := ja["effective_throughput"].(float64); thr <= 0 {
			t.Fatalf("job %s starved under sharding: %g", id, thr)
		}
		if stale, _ := ja["stale"].(bool); stale {
			t.Fatalf("job %s flagged stale on a healthy fleet", id)
		}
	}

	// Churn a round: remove two, add one; the diff lands on the owners.
	doAuth(t, "DELETE", ts.URL+"/v1/jobs/0", token, "", nil, http.StatusAccepted)
	doAuth(t, "DELETE", ts.URL+"/v1/jobs/5", token, "", nil, http.StatusAccepted)
	doAuth(t, "POST", ts.URL+"/v1/jobs", token, "", jobSpec{ID: 50, Throughput: []float64{2, 2, 2}}, http.StatusAccepted)
	tick = doAuth(t, "POST", ts.URL+"/v1/tick", token, "", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 9 {
		t.Fatalf("round after churn has %g jobs, want 9", got)
	}

	stats := do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK)
	if kind := stats["engine_kind"].(string); kind != "sharded" {
		t.Fatalf("engine_kind = %q, want sharded", kind)
	}
	workers, ok := stats["workers"].([]any)
	if !ok || len(workers) != 2 {
		t.Fatalf("stats workers section %v, want 2 entries", stats["workers"])
	}
	totalJobs := 0.0
	for _, w := range workers {
		ws := w.(map[string]any)
		if ws["round"].(float64) != 2 {
			t.Fatalf("worker not at round 2: %v", ws)
		}
		if ws["stale"].(bool) {
			t.Fatalf("worker stale on a healthy fleet: %v", ws)
		}
		totalJobs += ws["jobs"].(float64)
	}
	if totalJobs != 9 {
		t.Fatalf("workers own %g jobs between them, want 9", totalJobs)
	}

	// The coordinator's shard counters reach /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"pop_shard_rounds_total 2",
		"pop_shard_gather_seconds",
		"pop_shard_stale_jobs 0",
		"pop_shard_response_bytes_count 4", // two workers, two rounds
		`pop_shard_worker_seconds_bucket{worker="0"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("coordinator /metrics missing %q", want)
		}
	}
}

// fixedEngine holds whatever it is given and allocates every client the same
// row: a tick over it costs what serving costs around the solver.
type fixedEngine struct {
	jobs  []cluster.Job // the benchmark submits ascending ids
	alloc cluster.Allocation
}

func (e *fixedEngine) Upsert(j cluster.Job) {
	e.jobs = append(e.jobs, j)
	e.alloc.EffThr = append(e.alloc.EffThr, 1)
	e.alloc.X = append(e.alloc.X, []float64{0.5, 0.25, 0.25})
}
func (e *fixedEngine) Remove(int) bool     { return false }
func (e *fixedEngine) NumJobs() int        { return len(e.jobs) }
func (e *fixedEngine) Jobs() []cluster.Job { return e.jobs }
func (e *fixedEngine) Allocate(cluster.Cluster) ([]cluster.Job, *cluster.Allocation, error) {
	return e.jobs, &e.alloc, nil
}
func (e *fixedEngine) Step([]cluster.Job, cluster.Cluster) (*cluster.Allocation, error) {
	return nil, errors.New("not a round loop")
}

// BenchmarkTickPublish is one tick of a single-process server holding 50 000
// jobs over an engine that costs nothing: the in-process round trip (pack,
// accept, merge) plus publishing the round for readers — the part of a tick
// that is not the solver.
func BenchmarkTickPublish(b *testing.B) {
	s, err := newServerWith(cluster.NewCluster(4, 4, 4), serverConfig{policy: "price"}, nil,
		func(cluster.Cluster, shard.EngineConfig) (*shard.EngineBundle, error) {
			return &shard.EngineBundle{Engine: &fixedEngine{}, Kind: "price", Stats: func() any { return struct{}{} }}, nil
		})
	if err != nil {
		b.Fatal(err)
	}
	for id := 0; id < 50000; id++ {
		s.pending = append(s.pending, mutation{submit: &cluster.Job{ID: id, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: 1}})
	}
	if e, err := s.tick(); err != nil || e.NumJobs != 50000 || e.StaleJobs != 0 {
		b.Fatalf("load tick: %v, %+v", err, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServerZeroThroughputJob: a job that can use no GPU type is a max-min
// sub-problem with nothing to constrain its level. Its round is solved, not
// found unbounded, so the job's row is served fresh, alone in the one
// sub-problem (K = 1) or in one of two beside a job that runs (K = 2).
func TestServerZeroThroughputJob(t *testing.T) {
	for _, k := range []int{1, 2} {
		s, _ := newEngineServer(t, cluster.NewCluster(4, 4, 4), serverConfig{policy: "maxmin", opts: online.Options{K: k}})
		ts := httptest.NewServer(s.handler())
		t.Cleanup(ts.Close)
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 1, Throughput: []float64{0, 0, 0}}, http.StatusAccepted)
		if k == 2 {
			do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 2, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)
		}
		for round := 1; round <= 2; round++ {
			if tick := do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK); tick["stale_jobs"].(float64) != 0 {
				t.Fatalf("K=%d round %d: %v stale jobs", k, round, tick["stale_jobs"])
			}
			row := do(t, "GET", ts.URL+"/v1/allocation/1", nil, http.StatusOK)
			if stale, _ := row["stale"].(bool); stale || row["effective_throughput"].(float64) != 0 {
				t.Fatalf("K=%d round %d: zero-throughput job served %v", k, round, row)
			}
		}
	}
}
