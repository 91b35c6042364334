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

// httpTransport reaches a worker process through its Handler: requests go
// as the frames the coordinator packed, a round's answer comes back as one,
// and a sync's answer as a JSON document.
type httpTransport struct {
	client *http.Client
	url    string
	token  Token
}

func (t *httpTransport) String() string { return t.url }

func (t *httpTransport) Round(ctx context.Context, o *obs.Observer, req *RoundRequest, limit int64) (*RoundResponse, error) {
	if o != nil {
		o.Metrics.Histogram("pop_shard_request_bytes", "round request body size, per worker per round",
			wireBytesBuckets).Observe(float64(len(req.frame)))
	}
	resp, err := post(ctx, o, t, PathRound, req, limit, decodeFrame)
	if err == nil && o != nil {
		o.Metrics.Histogram("pop_shard_response_bytes", "round response body size, per worker per round",
			wireBytesBuckets).Observe(float64(len(resp.frame)))
	}
	return resp, err
}

var wireBytesBuckets = obs.ExpBuckets(1<<10, 4, 12) // 1 KiB to 4 GiB

func (t *httpTransport) Sync(ctx context.Context, o *obs.Observer, req *SyncRequest) (*SyncResponse, error) {
	return post(ctx, o, t, PathSync, req, 1<<16, func(_ string, body []byte) (*SyncResponse, error) {
		out := new(SyncResponse)
		return out, json.Unmarshal(body, out)
	})
}

// post sends one request frame and hands the answer's body — at most limit
// bytes, read once into a buffer sized from Content-Length — to decode. Any
// outcome other than a decoded 200 is an error, with error bodies folded
// into it and a 409 reported as ErrOutOfSync. Reading and decoding the
// answer is a "shard.decode" phase on o's lane.
func post[T any](ctx context.Context, o *obs.Observer, t *httpTransport, path string, in *RoundRequest, limit int64,
	decode func(contentType string, body []byte) (*T, error)) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url+path, bytes.NewReader(in.frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", frameContentType)
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
	n := resp.ContentLength
	if n <= limit { // a declared length over the limit is refused unread
		body.Grow(int(max(n, 0)) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
		if _, err := body.ReadFrom(io.LimitReader(resp.Body, limit+1)); err != nil {
			return nil, fmt.Errorf("%s: reading response: %w", path, err)
		}
	}
	if n > limit || int64(body.Len()) > limit {
		return nil, fmt.Errorf("%s: %w (%d bytes)", path, ErrTooLarge, limit)
	}
	return decode(resp.Header.Get("Content-Type"), body.Bytes())
}
