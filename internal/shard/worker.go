package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// WorkerOptions configure a shard worker.
type WorkerOptions struct {
	// Token authenticates coordinator requests (empty disables auth).
	Token Token
	// StateFile, when non-empty, persists the engine's warm state after
	// every round (asynchronously, last-writer-wins) and restores it at
	// construction, so a restarted worker re-warms instead of cold-starting
	// and usually rejoins without a rebuild at all.
	StateFile string
	// Obs receives worker telemetry; its registry backs GET /metrics.
	Obs *obs.Observer
	Log *slog.Logger
}

// Worker owns one shard's persistent engine across rounds and serves the
// coordinator protocol: a round applies the shard's mutation batch and
// re-solves (models, bases, and prices stay warm in-process between rounds);
// a full round first reconciles the engine against the shard's whole client
// set from the coordinator's registry.
type Worker struct {
	b    *EngineBundle
	opts WorkerOptions

	// mu serializes rounds — the engine is single-threaded state.
	mu        sync.Mutex
	lastRound int
	// width is the throughput width of the clients the engine holds (any
	// while it holds none): the pool width of the last round applied, or
	// of the restored state.
	width int

	// fileMu orders state-file writes: the background checkpoint holds it
	// while writing, so SaveState's final write lands after — never under —
	// an older snapshot still in flight.
	fileMu sync.Mutex
}

// NewWorker wraps an engine bundle in the shard protocol. If a state file
// is configured and present, the engine is restored from it (a corrupt or
// mismatched file is logged and ignored — the worker starts fresh and the
// coordinator rebuilds it).
func NewWorker(b *EngineBundle, opts WorkerOptions) *Worker {
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	w := &Worker{b: b, opts: opts}
	if opts.StateFile != "" {
		w.restoreState()
	}
	return w
}

// LastRound reports the last round the worker applied.
func (w *Worker) LastRound() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastRound
}

// Handler returns the worker's HTTP surface. A round mutates engine state
// and sits behind the bearer token; health and metrics are read-only probes
// and stay open.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST "+PathRound, w.opts.Token.Middleware(http.HandlerFunc(w.handleRound)))
	mux.HandleFunc("GET "+PathHealth, w.handleHealth)
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, _ *http.Request) {
		if w.opts.Obs == nil || w.opts.Obs.Metrics == nil {
			http.Error(rw, "no metrics registry", http.StatusNotFound)
			return
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.opts.Obs.Metrics.WritePrometheus(rw)
	})
	return mux
}

// maxRequestBytes bounds a round request body. A full round carries a
// shard's whole client set (72 bytes a job at three GPU types), so the cap
// is sized for a million-client shard with room to spare rather than for a
// round's churn.
const maxRequestBytes = 1 << 30

// badRequestError: refused before touching the engine (400 on the wire).
type badRequestError struct{ error }

// readRequest reads one bounded request body, into a buffer sized from
// Content-Length, and decodes its header; round reads the columns.
func readRequest(rw http.ResponseWriter, r *http.Request) (*RoundRequest, error) {
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxRequestBytes {
		body.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(rw, r.Body, maxRequestBytes)); err != nil {
		return nil, badRequestError{err}
	}
	req, err := decodeRequest(body.Bytes())
	if err != nil {
		return nil, badRequestError{err}
	}
	return req, nil
}

// writeError answers a failed round with 400, 409, or 500.
func (w *Worker) writeError(rw http.ResponseWriter, err error) {
	var bad badRequestError
	switch {
	case errors.As(err, &bad):
		writeJSON(rw, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad round request: %v", bad.error)})
	case errors.Is(err, ErrOutOfSync):
		writeJSON(rw, http.StatusConflict, errorResponse{Error: ErrOutOfSync.Error(), LastRound: w.LastRound()})
	default:
		writeJSON(rw, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// phase opens one child of the worker's round: a "shard.worker.<name>"
// span plus the matching pop_shard_worker_phase_seconds series.
func (w *Worker) phase(name string) obs.Timed {
	if w.opts.Obs == nil {
		return obs.Timed{}
	}
	return w.opts.Obs.Timed("shard.worker."+name,
		`pop_shard_worker_phase_seconds{phase="`+name+`"}`, "worker round time by phase")
}

// handleRound is the HTTP shell around round: decode, run, encode.
func (w *Worker) handleRound(rw http.ResponseWriter, r *http.Request) {
	defer w.phase("round").End()
	var resp *RoundResponse
	req, err := readRequest(rw, r)
	if err == nil {
		resp, err = w.round(req)
	}
	if err != nil {
		w.writeError(rw, err)
		return
	}
	// One write of the whole frame, with its length. The frame is this
	// round's own — a round the coordinator gave up on may still be writing
	// when the next one packs — and garbage after the write, not live heap.
	defer w.phase("encode").End()
	out, err := resp.encode()
	if err != nil {
		writeJSON(rw, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("round %d: encode: %v", req.Round, err)})
		return
	}
	rw.Header().Set("Content-Type", frameContentType)
	rw.Header().Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = rw.Write(out) // a failed write is the coordinator's timeout to report
}

// round is the transport-independent core of a round: read the batch,
// apply it, solve over the held clients, pack the allocation, checkpoint. A
// full round first drops every held client it does not list.
func (w *Worker) round(req *RoundRequest) (*RoundResponse, error) {
	b, err := req.read()
	if err != nil {
		return nil, badRequestError{err}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Behind the coordinator: a mutation batch passed us by (crash, lost
	// state); the coordinator must resend the round as a full one. Ahead
	// (the coordinator wrote a previous round of ours off as straggling
	// after we finished it) is fine: unacked batches are re-queued and
	// idempotent, so applying this one is safe. A pool of another width
	// than the held clients' needs a full round too: only one relists every
	// client, at the new width, and an engine solving clients of one width
	// over a pool of another indexes past their rows.
	reshaped := w.b.Engine.NumJobs() > 0 && b.width != w.width
	if !req.Full && (req.PrevRound > w.lastRound || reshaped) {
		w.opts.Obs.Counter("pop_shard_worker_out_of_sync_total", "rounds rejected pending a full round").Inc()
		return nil, ErrOutOfSync
	}
	start := time.Now()
	ph := w.phase("apply")
	upserts := b.upserts()
	if req.Full {
		k, dropped := 0, 0
		for _, j := range w.b.Engine.Jobs() { // ascending, as upserts are
			for k < len(upserts) && upserts[k].ID < j.ID {
				k++
			}
			if k == len(upserts) || upserts[k].ID != j.ID {
				w.b.Engine.Remove(j.ID)
				dropped++
			}
		}
		w.opts.Obs.Counter("pop_shard_worker_full_rounds_total", "full rounds applied").Inc()
		w.opts.Log.Info("shard rebuild", "round", req.Round, "jobs", len(upserts), "dropped", dropped)
	}
	for _, j := range upserts {
		w.b.Engine.Upsert(j)
	}
	for k := range b.numRemoves() {
		w.b.Engine.Remove(b.remove(k))
	}
	w.width = b.width
	ph.End()

	// The held-state round: the engine solves over the clients it already
	// holds and hands back its own ascending-id table, so nothing here
	// copies, sorts, or re-diffs the shard.
	ph = w.phase("solve")
	var jobs []cluster.Job
	var alloc *cluster.Allocation
	if w.b.Engine.NumJobs() > 0 {
		jobs, alloc, err = w.b.Engine.Allocate(cluster.Cluster{TypeNames: req.TypeNames, NumGPUs: req.GPUs})
	}
	ph.End()
	resp := &RoundResponse{Wire: wireVersion, Round: req.Round, Kind: w.b.Kind}
	if err == nil {
		if stats, err := json.Marshal(w.b.Stats()); err == nil {
			resp.Stats = stats
		}
		ph = w.phase("extract")
		err = resp.pack(jobs, alloc)
		ph.End()
	}
	if err != nil {
		return nil, fmt.Errorf("round %d failed: %w", req.Round, err)
	}
	w.lastRound = req.Round
	resp.SolveMs = float64(time.Since(start).Microseconds()) / 1000
	w.opts.Obs.Counter("pop_shard_worker_rounds_total", "rounds this worker applied").Inc()
	if o := w.opts.Obs; o != nil {
		o.Histogram("pop_shard_worker_round_seconds", "per-round apply+solve wall time").
			Observe(time.Since(start).Seconds())
	}
	w.opts.Log.Debug("shard round", "round", req.Round, "jobs", len(jobs),
		"upserts", len(upserts), "removes", b.numRemoves(), "solve_ms", resp.SolveMs)
	w.saveStateAsync()
	return resp, nil
}

func (w *Worker) handleHealth(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	resp := HealthResponse{OK: true, LastRound: w.lastRound, NumJobs: w.b.Engine.NumJobs(), Kind: w.b.Kind}
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, resp)
}

// workerState is the on-disk shape of a -state-file. Kind is the
// EngineBundle.Kind that wrote it: a file from another kind of engine is
// rejected whole, since the engine snapshots share JSON names (policy,
// rounds, iterations, …) and one would half-decode into the other. Files
// without it predate the field and restore as before. Round is read, never
// written: the envelope single-process popserver kept before it became a
// coordinator over an in-process worker.
type workerState struct {
	LastRound int             `json:"last_round"`
	Round     int             `json:"round,omitempty"`
	Kind      string          `json:"kind,omitempty"`
	Engine    json.RawMessage `json:"engine"`
}

// maxRestoredRound bounds the round a state file may resume at: 2^53, the
// largest integer every JSON reader of X-Pop-Round and /v1/stats holds
// exactly, and far below where the round counter would overflow.
const maxRestoredRound = 1 << 53

// SaveState synchronously persists the engine snapshot (graceful shutdown).
func (w *Worker) SaveState() error {
	if w.opts.StateFile == "" {
		return nil
	}
	w.mu.Lock()
	st, err := w.snapshotLocked()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	return writeFileAtomic(w.opts.StateFile, st)
}

func (w *Worker) snapshotLocked() ([]byte, error) {
	eng, err := w.b.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(workerState{LastRound: w.lastRound, Kind: w.b.Kind, Engine: eng})
}

// saveStateAsync snapshots under the held lock (cheap struct copies) and
// writes in the background, skipping when a write is already in flight —
// a best-effort checkpoint, with SaveState as the synchronous barrier.
func (w *Worker) saveStateAsync() {
	if w.opts.StateFile == "" || !w.fileMu.TryLock() {
		return
	}
	st, err := w.snapshotLocked()
	if err != nil {
		w.fileMu.Unlock()
		w.opts.Log.Warn("state snapshot failed", "err", err)
		return
	}
	go func() {
		defer w.fileMu.Unlock()
		if err := writeFileAtomic(w.opts.StateFile, st); err != nil {
			w.opts.Log.Warn("state save failed", "err", err)
		}
	}()
}

func (w *Worker) restoreState() {
	raw, err := os.ReadFile(w.opts.StateFile)
	if err != nil {
		if !os.IsNotExist(err) {
			w.opts.Log.Warn("state file unreadable; starting fresh", "file", w.opts.StateFile, "err", err)
		}
		return
	}
	var st workerState
	if err := json.Unmarshal(raw, &st); err != nil {
		w.opts.Log.Warn("state file corrupt; starting fresh", "file", w.opts.StateFile, "err", err)
		return
	}
	round := max(st.LastRound, st.Round)
	switch {
	case st.Kind != "" && st.Kind != w.b.Kind:
		err = fmt.Errorf("state file holds a %q engine, this worker runs %q", st.Kind, w.b.Kind)
	case round < 0 || int64(round) > maxRestoredRound:
		// The coordinator resumes counting from this round, and a round near
		// the top of int wraps negative within a few rounds.
		err = fmt.Errorf("state file round %d outside [0, 2^53]", round)
	default:
		err = w.b.Restore(st.Engine)
	}
	if err != nil {
		w.opts.Log.Warn("state restore rejected; starting fresh", "file", w.opts.StateFile, "err", err)
		return
	}
	w.lastRound = round
	if jobs := w.b.Engine.Jobs(); len(jobs) > 0 {
		w.width = len(jobs[0].Throughput) // Restore checked every row against the pool
	}
	w.opts.Log.Info("state restored", "file", w.opts.StateFile,
		"round", w.lastRound, "jobs", w.b.Engine.NumJobs())
}

func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".state-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
