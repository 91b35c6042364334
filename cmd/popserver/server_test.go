package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pop/internal/cluster"
	"pop/internal/online"
	"pop/internal/shard"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s, _ := newEngineServer(t, cluster.NewCluster(4, 4, 4), serverConfig{policy: "maxmin", opts: online.Options{K: 2}})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newEngineServer builds a server over one in-process worker and keeps a
// handle on that worker's engine bundle, which the server itself no longer
// holds.
func newEngineServer(t *testing.T, c cluster.Cluster, cfg serverConfig) (*server, *shard.EngineBundle) {
	t.Helper()
	var b *shard.EngineBundle
	s, err := newServerWith(c, cfg, nil, func(c cluster.Cluster, ec shard.EngineConfig) (*shard.EngineBundle, error) {
		var err error
		b, err = shard.NewEngine(c, ec)
		return b, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

func do(t *testing.T, method, url string, body any, wantCode int) map[string]any {
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
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d", method, url, resp.StatusCode, wantCode)
	}
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	return out
}

// TestServerRoundTrip drives the full submit → tick → allocation → remove
// life cycle through the HTTP surface.
func TestServerRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)

	// Batch a handful of jobs; nothing is allocated before the round ticks.
	for id := 0; id < 6; id++ {
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{
			ID:         id,
			Throughput: []float64{1, 2, 4},
			Weight:     1,
			Scale:      1,
			NumSteps:   1000,
		}, http.StatusAccepted)
	}
	alloc := do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)
	if got := alloc["num_jobs"].(float64); got != 0 {
		t.Fatalf("pre-tick allocation has %g jobs, want 0 (batching broke)", got)
	}

	// Tick: the batch lands in one round.
	tick := do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 6 {
		t.Fatalf("round saw %g jobs, want 6", got)
	}

	alloc = do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)
	jobs := alloc["jobs"].(map[string]any)
	if len(jobs) != 6 {
		t.Fatalf("allocation has %d jobs, want 6", len(jobs))
	}
	// Every job must receive useful throughput on this uncontended cluster.
	for id, raw := range jobs {
		ja := raw.(map[string]any)
		if thr := ja["effective_throughput"].(float64); thr <= 0 {
			t.Fatalf("job %s starved: %g", id, thr)
		}
		x := ja["x"].([]any)
		sum := 0.0
		for _, v := range x {
			sum += v.(float64)
		}
		if sum > 1+1e-6 {
			t.Fatalf("job %s time budget %g > 1", id, sum)
		}
	}

	one := do(t, "GET", ts.URL+"/v1/allocation/3", nil, http.StatusOK)
	if got := one["id"].(float64); got != 3 {
		t.Fatalf("allocation/3 returned id %g", got)
	}
	do(t, "GET", ts.URL+"/v1/allocation/99", nil, http.StatusNotFound)
	do(t, "GET", ts.URL+"/v1/allocation/three", nil, http.StatusNotFound)

	// Remove two jobs; the next round shrinks.
	do(t, "DELETE", ts.URL+"/v1/jobs/0", nil, http.StatusAccepted)
	do(t, "DELETE", ts.URL+"/v1/jobs/1", nil, http.StatusAccepted)
	tick = do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if got := tick["num_jobs"].(float64); got != 4 {
		t.Fatalf("round saw %g jobs after removals, want 4", got)
	}

	stats := do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK)
	eng := stats["engine"].(map[string]any)
	if got := eng["departures"].(float64); got != 2 {
		t.Fatalf("engine departures %g, want 2", got)
	}
	if got := eng["rounds"].(float64); got < 2 {
		t.Fatalf("engine rounds %g, want ≥ 2", got)
	}
}

// TestServerBatchingSkipsCleanSubProblems: a second tick with no pending
// mutations must not re-solve anything.
func TestServerBatchingSkipsCleanSubProblems(t *testing.T) {
	s, b := newEngineServer(t, cluster.NewCluster(4, 4, 4), serverConfig{policy: "maxmin", opts: online.Options{K: 2}})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	for id := 0; id < 4; id++ {
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: id, Throughput: []float64{1, 1, 1}}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	before := b.Stats().(online.Stats).SubSolves
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if after := b.Stats().(online.Stats).SubSolves; after != before {
		t.Fatalf("idle tick re-solved %d sub-problems", after-before)
	}
}

// TestServerValidation rejects malformed submissions — a short throughput
// row, a negative id, throughput or mem_frac — with 400, so none of them
// reaches a worker: the next tick serves every accepted job fresh. (A
// negative mem_frac was once accepted; the worker's frame check then
// refused its shard's whole batch every round.)
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for id := 0; id < 4; id++ {
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: id, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 8, Throughput: []float64{1, 2}}, http.StatusBadRequest)
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: -1, Throughput: []float64{1, 2, 3}}, http.StatusBadRequest)
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 8, Throughput: []float64{1, -2, 3}}, http.StatusBadRequest)
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 9, Throughput: []float64{1, 2, 3}, MemFrac: -0.5}, http.StatusBadRequest)
	tick := do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	if tick["num_jobs"].(float64) != 4 || tick["stale_jobs"].(float64) != 0 {
		t.Fatalf("tick after the refused submissions: %v, want 4 jobs and none stale", tick)
	}
	do(t, "GET", ts.URL+"/healthz", nil, http.StatusOK)
}

// TestServerSetCluster drives the resource-capacity endpoint: a PUT
// reshapes the pool for the next round, dirtying every sub-problem and
// never lowering the max-min fair floor when capacity only grows; malformed
// specs are rejected without touching the pool.
func TestServerSetCluster(t *testing.T) {
	s, b := newEngineServer(t, cluster.NewCluster(4, 4, 4), serverConfig{policy: "maxmin", opts: online.Options{K: 2}})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	jobs := make([]cluster.Job, 6)
	for id := 0; id < 6; id++ {
		thr := []float64{1, 1.5 + float64(id)*0.2, 3}
		jobs[id] = cluster.Job{ID: id, Throughput: thr, Weight: 1, Scale: 1, NumSteps: 1, Priority: 1}
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: id, Throughput: thr}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	small := cluster.NewCluster(4, 4, 4)
	floorBefore := minRatio(t, ts, jobs, small)
	solvesBefore := int(engineStat(t, ts, "sub_solves"))

	resp := do(t, "PUT", ts.URL+"/v1/cluster", clusterSpec{GPUs: []float64{8, 8, 8}}, http.StatusOK)
	gpus, ok := resp["gpus"].([]any)
	if !ok || len(gpus) != 3 || gpus[0].(float64) != 8 {
		t.Fatalf("PUT /v1/cluster echoed %v", resp["gpus"])
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	big := cluster.NewCluster(8, 8, 8)
	if got := b.Engine.(*online.ClusterEngine).Cluster().NumGPUs[0]; got != 8 {
		t.Fatalf("engine cluster not updated: %g GPUs of type 0, want 8", got)
	}
	// The capacity change dirties both sub-problems.
	if got := int(engineStat(t, ts, "sub_solves")) - solvesBefore; got != 2 {
		t.Fatalf("capacity change re-solved %d sub-problems, want 2", got)
	}
	// More GPUs with identical (clamped) equal shares: the fair floor —
	// min normalized ratio, the policy's objective — must not drop.
	if floorAfter := minRatio(t, ts, jobs, big); floorAfter < floorBefore-1e-9 {
		t.Fatalf("fair floor dropped after capacity doubled: %g -> %g", floorBefore, floorAfter)
	}

	// Malformed specs: wrong arity, negative counts, bad JSON.
	do(t, "PUT", ts.URL+"/v1/cluster", clusterSpec{GPUs: []float64{8, 8}}, http.StatusBadRequest)
	do(t, "PUT", ts.URL+"/v1/cluster", clusterSpec{GPUs: []float64{8, -1, 8}}, http.StatusBadRequest)
	do(t, "PUT", ts.URL+"/v1/cluster", "not a cluster", http.StatusBadRequest)
	if got := b.Engine.(*online.ClusterEngine).Cluster().NumGPUs[0]; got != 8 {
		t.Fatalf("rejected PUT changed the cluster: %g GPUs of type 0", got)
	}
}

// minRatio recomputes the max-min objective — the minimum normalized
// throughput ratio — from the served allocation snapshot.
func minRatio(t *testing.T, ts *httptest.Server, jobs []cluster.Job, c cluster.Cluster) float64 {
	t.Helper()
	snap := do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)
	served, _ := snap["jobs"].(map[string]any)
	a := &cluster.Allocation{EffThr: make([]float64, len(jobs))}
	for i, j := range jobs {
		ja, ok := served[fmt.Sprint(j.ID)].(map[string]any)
		if !ok {
			t.Fatalf("job %d missing from allocation snapshot", j.ID)
		}
		a.EffThr[i] = ja["effective_throughput"].(float64)
	}
	min, _ := cluster.MinMean(cluster.NormalizedRatios(jobs, c, a))
	return min
}

func engineStat(t *testing.T, ts *httptest.Server, key string) float64 {
	t.Helper()
	stats := do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK)
	eng, ok := stats["engine"].(map[string]any)
	if !ok {
		t.Fatal("stats missing engine section")
	}
	v, ok := eng[key].(float64)
	if !ok {
		t.Fatalf("stats engine section missing %q", key)
	}
	return v
}

// TestServerSpaceSharingPolicy runs a round under the space-sharing policy:
// jobs are allocated through shared slots, so the snapshot reports effective
// throughputs without solo X rows.
func TestServerSpaceSharingPolicy(t *testing.T) {
	s, err := newServer(cluster.NewCluster(3, 3, 3), serverConfig{policy: "spacesharing", opts: online.Options{K: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	for id := 0; id < 8; id++ {
		do(t, "POST", ts.URL+"/v1/jobs",
			jobSpec{ID: id, Throughput: []float64{1, 2, 3.5 + float64(id)*0.1}}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	snap := do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)
	served, _ := snap["jobs"].(map[string]any)
	if len(served) != 8 {
		t.Fatalf("snapshot has %d jobs, want 8", len(served))
	}
	for id, v := range served {
		ja := v.(map[string]any)
		if thr := ja["effective_throughput"].(float64); thr <= 0 {
			t.Fatalf("job %s starved under space sharing: %g", id, thr)
		}
		if _, has := ja["x"]; has {
			t.Fatalf("job %s snapshot carries solo X rows under space sharing", id)
		}
	}
}

// TestServerPricePolicy runs rounds under -policy price: allocations come
// from the solver-free price-discovery engine, and /v1/stats reports the
// engine kind plus the price-engine counters (iterations, clearing residual,
// warm-price rounds).
func TestServerPricePolicy(t *testing.T) {
	s, err := newServer(cluster.NewCluster(4, 4, 4), serverConfig{policy: "price"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	for id := 0; id < 12; id++ {
		do(t, "POST", ts.URL+"/v1/jobs",
			jobSpec{ID: id, Throughput: []float64{1, 2, 3.5 + float64(id)*0.1}}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	// Low-churn second round: the engine carries the prices forward.
	do(t, "DELETE", ts.URL+"/v1/jobs/3", nil, http.StatusAccepted)
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 99, Throughput: []float64{2, 2, 2}}, http.StatusAccepted)
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)

	snap := do(t, "GET", ts.URL+"/v1/allocation", nil, http.StatusOK)
	served, _ := snap["jobs"].(map[string]any)
	if len(served) != 12 {
		t.Fatalf("snapshot has %d jobs, want 12", len(served))
	}
	for id, v := range served {
		ja := v.(map[string]any)
		if thr := ja["effective_throughput"].(float64); thr <= 0 {
			t.Fatalf("job %s starved under the price engine: %g", id, thr)
		}
	}

	stats := do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK)
	if kind := stats["engine_kind"].(string); kind != "price" {
		t.Fatalf("engine_kind = %q, want price", kind)
	}
	pr := stats["price"].(map[string]any)
	if got := pr["rounds"].(float64); got != 2 {
		t.Fatalf("price rounds %g, want 2", got)
	}
	if got := pr["iterations"].(float64); got <= 0 {
		t.Fatalf("price iterations %g, want > 0", got)
	}
	if got := pr["warm_price_rounds"].(float64); got != 1 {
		t.Fatalf("warm price rounds %g, want 1 (second round rides carried prices)", got)
	}
	for _, key := range []string{"last_residual", "last_enumerated"} {
		if _, has := pr[key]; !has {
			t.Fatalf("price stats missing %s", key)
		}
	}

	// An LP-engine server reports its kind and an all-zero price block —
	// the schema is stable across engines.
	lpStats := func() map[string]any {
		_, lts := newTestServer(t)
		return do(t, "GET", lts.URL+"/v1/stats", nil, http.StatusOK)
	}()
	if kind := lpStats["engine_kind"].(string); kind != "lp" {
		t.Fatalf("LP server engine_kind = %q, want lp", kind)
	}
	if pr := lpStats["price"].(map[string]any); pr["rounds"].(float64) != 0 {
		t.Fatalf("LP server price block should be zero: %v", pr)
	}
}

// TestServerAllocationFeasible checks the composed allocation against the
// cluster budgets after a few churn rounds.
func TestServerAllocationFeasible(t *testing.T) {
	s, ts := newTestServer(t)
	for id := 0; id < 10; id++ {
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{
			ID:         id,
			Throughput: []float64{1 + float64(id%3), 2, 3 + float64(id%2)},
			Scale:      float64(1 + id%2),
		}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	do(t, "DELETE", ts.URL+"/v1/jobs/2", nil, http.StatusAccepted)
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 77, Throughput: []float64{5, 5, 5}}, http.StatusAccepted)
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)

	e := s.epoch.Load()
	used := make([]float64, 3)
	for k, id := range e.ids {
		scale := 1 + float64(id%2)
		if id == 77 {
			scale = 1
		}
		for i, v := range e.row(k).X {
			if v < -1e-9 {
				t.Fatalf("job %d negative fraction %g", id, v)
			}
			used[i] += v * scale
		}
	}
	for i, u := range used {
		if u > 4+1e-6 {
			t.Fatalf("GPU type %d oversubscribed: %g > 4", i, u)
		}
		if math.IsNaN(u) {
			t.Fatalf("NaN usage on type %d", i)
		}
	}
}

// TestServerMetricsEndpoint checks the Prometheus exposition after a round:
// round latency histogram, engine counters, and per-endpoint HTTP series all
// appear with the right content type, and every response carries the
// monotonic round stamp.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for id := 0; id < 4; id++ {
		do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: id, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)
	}
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q, want text/plain exposition", ct)
	}
	if got := resp.Header.Get("X-Pop-Round"); got != "1" {
		t.Fatalf("X-Pop-Round = %q after one round, want \"1\"", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"pop_rounds_total 1",
		"pop_round_seconds_bucket",
		`pop_round_seconds_bucket{le="+Inf"} 1`,
		"pop_round_seconds_sum",
		"pop_jobs 4",
		"pop_online_rounds_total 1",
		"pop_online_subsolves_total",
		"pop_lp_solves_total",
		"pop_lp_pivots_total",
		"pop_lp_price_ties_total",
		`pop_http_requests_total{path="/v1/jobs",code="202"} 4`,
		`pop_http_request_seconds_bucket{path="/v1/tick",le="+Inf"} 1`,
		"# TYPE pop_round_seconds histogram",
		"# HELP pop_rounds_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("GET /metrics missing %q in:\n%s", want, body)
		}
	}

	// A request that misses every route books under the fallback label
	// rather than minting a series per raw URL.
	if r2, err := http.Get(ts.URL + "/no/such/route"); err == nil {
		r2.Body.Close()
	}
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(raw2), `path="unmatched"`) {
		t.Fatal("unrouted request did not book under path=\"unmatched\"")
	}
}

// TestServerStatsSearchBlock: /v1/stats carries the milp search section with
// a stable schema (zeros here — the bundled cluster policies are pure LPs)
// and the engine section keyed by the wire names the JSON tags pin down.
func TestServerStatsSearchBlock(t *testing.T) {
	_, ts := newTestServer(t)
	do(t, "POST", ts.URL+"/v1/jobs", jobSpec{ID: 0, Throughput: []float64{1, 1, 1}}, http.StatusAccepted)
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	stats := do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK)
	search, ok := stats["search"].(map[string]any)
	if !ok {
		t.Fatal("/v1/stats missing search section")
	}
	for _, key := range []string{"nodes", "warm_nodes", "cold_fallbacks", "heuristic_solves", "lp_pivots", "dual_pivots"} {
		if _, ok := search[key].(float64); !ok {
			t.Fatalf("search section missing %q: %v", key, search)
		}
	}
	eng, ok := stats["engine"].(map[string]any)
	if !ok {
		t.Fatal("/v1/stats missing engine section")
	}
	for _, key := range []string{"rounds", "sub_solves", "warm_attempts", "warm_hits", "iterations", "arrivals"} {
		if _, ok := eng[key].(float64); !ok {
			t.Fatalf("engine section missing %q: %v", key, eng)
		}
	}
}

// TestServerConcurrentLoad hammers submit/remove/tick/stats/metrics from
// many goroutines at once; run under -race this is the data-race check for
// the whole observability path (registry, round counter, middleware).
func TestServerConcurrentLoad(t *testing.T) {
	_, ts := newTestServer(t)
	const (
		workers = 8
		rounds  = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	req := func(method, path string, body any, wantCode int) error {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return err
			}
		}
		r, err := http.NewRequest(method, ts.URL+path, &buf)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if wantCode != 0 && resp.StatusCode != wantCode {
			return fmt.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantCode)
		}
		return nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := w*rounds + i
				if err := req("POST", "/v1/jobs", jobSpec{
					ID:         id,
					Throughput: []float64{1, 2, 3 + float64(id%4)},
				}, http.StatusAccepted); err != nil {
					errs <- err
					return
				}
				var err error
				switch i % 4 {
				case 0:
					err = req("POST", "/v1/tick", nil, http.StatusOK)
				case 1:
					err = req("GET", "/v1/stats", nil, http.StatusOK)
				case 2:
					err = req("GET", "/metrics", nil, http.StatusOK)
				case 3:
					err = req("DELETE", fmt.Sprintf("/v1/jobs/%d", id), nil, 0)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One final round then a consistency probe: counters visible in both
	// /v1/stats and /metrics, round stamp monotone and positive.
	do(t, "POST", ts.URL+"/v1/tick", nil, http.StatusOK)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stamp, err := strconv.Atoi(resp.Header.Get("X-Pop-Round"))
	if err != nil || stamp < 1 {
		t.Fatalf("bad X-Pop-Round %q after load", resp.Header.Get("X-Pop-Round"))
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "pop_rounds_total") {
		t.Fatal("metrics lost pop_rounds_total under load")
	}
	if got := engineStat(t, ts, "rounds"); got < float64(stamp) {
		t.Fatalf("engine rounds %g < round stamp %d", got, stamp)
	}
}

// TestServerGracefulShutdown drives the real run() loop: submit work over
// the live listener, start rounds ticking, then cancel the context (as
// SIGINT/SIGTERM would) and require run to drain the in-flight round and
// return cleanly, leaving the engine in a consistent post-round state.
func TestServerGracefulShutdown(t *testing.T) {
	s, err := newServer(cluster.NewCluster(4, 4, 4), serverConfig{policy: "maxmin", opts: online.Options{K: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, ln, s, time.Millisecond) }()

	url := "http://" + ln.Addr().String()
	for id := 0; id < 8; id++ {
		do(t, "POST", url+"/v1/jobs", jobSpec{ID: id, Throughput: []float64{1, 2, 3}}, http.StatusAccepted)
	}
	// Let the ticker land a round that has absorbed the whole batch;
	// shutdown drains the round in flight, it does not flush mutations
	// still queued for the next one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.epoch.Load().NumJobs == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no round absorbed the batch before shutdown")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}

	// The listener is closed: new connections must fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
	// And the drained engine state is consistent: the last snapshot holds
	// every submitted job.
	e := s.epoch.Load()
	if e.NumJobs != 8 {
		t.Fatalf("final epoch has %d jobs, want 8", e.NumJobs)
	}
	var st online.Stats
	if err := json.Unmarshal(e.workers[0].Stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 1 || st.SubSolves < 1 {
		t.Fatalf("engine never worked: %+v", st)
	}
}

// TestServerShutdownWithoutTicker: run with round=0 (manual ticks only)
// must also exit cleanly on cancellation.
func TestServerShutdownWithoutTicker(t *testing.T) {
	s, err := newServer(cluster.NewCluster(2, 2, 2), serverConfig{policy: "makespan", opts: online.Options{K: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, ln, s, 0) }()
	url := "http://" + ln.Addr().String()
	do(t, "POST", url+"/v1/jobs", jobSpec{ID: 1, Throughput: []float64{1, 1, 1}}, http.StatusAccepted)
	do(t, "POST", url+"/v1/tick", nil, http.StatusOK)
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return")
	}
}
