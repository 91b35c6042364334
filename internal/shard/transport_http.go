package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"pop/internal/obs"
)

// CoordinatorOptions configure a sharded round coordinator.
type CoordinatorOptions struct {
	// Deadline bounds each round's scatter/gather, including any registry
	// sync a worker needs first. A worker that misses it is a straggler:
	// its clients are served last round's allocation, flagged stale, and
	// its unacked mutation batch stays queued for the next round. 0 means
	// 10s.
	Deadline time.Duration
	// Token authenticates coordinator→worker requests.
	Token Token
	// Obs receives round telemetry: a "shard.round" span with per-worker
	// "shard.gather" lanes, straggler/rebuild counters, and gather-latency
	// histograms.
	Obs *obs.Observer
	Log *slog.Logger
	// Client overrides the HTTP client (tests inject httptest transports).
	Client *http.Client
}

// NewCoordinator builds a coordinator over the given worker base URLs.
func NewCoordinator(workerURLs []string, opts CoordinatorOptions) (*Coordinator, error) {
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	ts := make([]Transport, len(workerURLs))
	for i, u := range workerURLs {
		ts[i] = &httpTransport{client: client, url: u, token: opts.Token}
	}
	return newCoordinator(ts, opts)
}

// httpTransport reaches a worker process through its Handler: one JSON
// document each way per call.
type httpTransport struct {
	client *http.Client
	url    string
	token  Token
}

func (t *httpTransport) String() string { return t.url }

func (t *httpTransport) Round(ctx context.Context, o *obs.Observer, req *RoundRequest, limit int64) (*RoundResponse, error) {
	return post(ctx, o, t, PathRound, req, limit, new(RoundResponse))
}

func (t *httpTransport) Sync(ctx context.Context, o *obs.Observer, req *SyncRequest) (*SyncResponse, error) {
	return post(ctx, o, t, PathSync, req, 1<<16, new(SyncResponse))
}

// post sends one JSON request and decodes the answer's body — at most limit
// bytes — into out. Any outcome other than a decoded 200 is an error, with
// error bodies folded into it and a 409 reported as ErrOutOfSync. The JSON
// work on either side is a "shard.encode"/"shard.decode" phase on o's lane.
func post[T any](ctx context.Context, o *obs.Observer, t *httpTransport, path string, in any, limit int64, out *T) (*T, error) {
	ep := phase(o, "encode")
	payload, err := json.Marshal(in)
	ep.End()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	t.token.Set(req)
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return nil, fmt.Errorf("%s: %w", path, ErrOutOfSync)
	}
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("%s: %s", path, e.Error)
		}
		return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	dp := phase(o, "decode")
	defer dp.End()
	var body bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= limit {
		body.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := body.ReadFrom(io.LimitReader(resp.Body, limit+1)); err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", path, err)
	}
	if int64(body.Len()) > limit {
		return nil, fmt.Errorf("%s: %w (%d bytes)", path, ErrTooLarge, limit)
	}
	if err := json.Unmarshal(body.Bytes(), out); err != nil {
		return nil, fmt.Errorf("%s: bad response: %w", path, err)
	}
	return out, nil
}
