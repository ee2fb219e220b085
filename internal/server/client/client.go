// Package client is the typed Go client for the comad daemon
// (internal/server): submit jobs, wait for or stream their progress,
// and fetch canonical result payloads. The comasim and comabench
// -remote modes are built on it.
//
// All methods are synchronous — the client spawns no goroutines; the
// only blocking it does is HTTP I/O and the backoff sleep on a 429,
// both bounded by the caller's context. Every request goes through one
// exchange, Client.do: it sends the request and hands back a 2xx
// response, or the daemon's decoded error for any other answer.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"coma/internal/server"
	"coma/internal/stats"
)

// Client talks to one comad daemon.
type Client struct {
	base    string
	hc      *http.Client
	backoff *Backoff
}

// New returns a client for the daemon at base (e.g. "http://localhost:7700").
// The underlying http.Client has no timeout — simulations can run for
// minutes; bound calls with a context instead. Retry jitter is seeded
// from the base URL, so a given client's schedule is reproducible but
// clients of different daemons (or tests with distinct httptest ports)
// de-correlate.
func New(base string) *Client {
	h := fnv.New64a()
	h.Write([]byte(base))
	return NewSeeded(base, h.Sum64())
}

// NewSeeded is New with an explicit retry-jitter seed, for tests and
// fleets that want per-instance de-correlation beyond the URL.
func NewSeeded(base string, seed uint64) *Client {
	return &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{},
		backoff: NewBackoff(seed),
	}
}

// StatusCode extracts the HTTP status from a daemon error (0 when err
// is not an API error — e.g. a transport failure).
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// IsGone reports whether err is the daemon saying a resource no longer
// exists (HTTP 410) — for workers, the signal to re-register.
func IsGone(err error) bool { return StatusCode(err) == http.StatusGone }

// apiError is a non-2xx response decoded from the daemon's error body.
type apiError struct {
	Status int
	Msg    string
	// RetryAfter is the daemon's Retry-After hint (0 if absent): the
	// backoff floor of a 429, not the delay itself.
	RetryAfter time.Duration
}

func (e *apiError) Error() string {
	return fmt.Sprintf("comad: %d: %s", e.Status, e.Msg)
}

func decodeError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(raw, &body) != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(raw))
	}
	ae := &apiError{Status: resp.StatusCode, Msg: body.Error}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

// do is the client's one HTTP exchange: it sends method path with body
// JSON-encoded (none when nil) and returns the response of a 2xx answer,
// whose body the caller closes. Any other answer is returned as the
// decoded *apiError.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// call is do plus decoding the JSON answer into out (skipped when nil).
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job. With wait, the call blocks until the job is
// terminal and the returned status carries the result payload. A 429 is
// retried with capped exponential backoff (deterministic jitter,
// Retry-After as a floor) until ctx expires.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec, wait bool) (server.JobStatus, error) {
	path := "/v1/jobs"
	if wait {
		path += "?wait=1"
	}
	for {
		resp, err := c.do(ctx, http.MethodPost, path, spec)
		if ae, ok := err.(*apiError); ok && ae.Status == http.StatusTooManyRequests {
			timer := time.NewTimer(c.backoff.Next(ae.RetryAfter))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return server.JobStatus{}, ctx.Err()
			}
			continue
		}
		if err != nil {
			return server.JobStatus{}, err
		}
		defer resp.Body.Close()
		var st server.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return server.JobStatus{}, fmt.Errorf("comad: decoding job status: %w", err)
		}
		c.backoff.Reset()
		return st, nil
	}
}

// Run submits, waits, and decodes the result: the blocking "give me the
// statistics for this configuration" call. The returned status carries
// the cache outcome and the raw payload.
func (c *Client) Run(ctx context.Context, spec server.JobSpec) (*stats.Run, server.JobStatus, error) {
	st, err := c.Submit(ctx, spec, true)
	if err != nil {
		return nil, st, err
	}
	run, err := decodeResult(st)
	return run, st, err
}

// RunStreaming submits asynchronously, forwards every job event to
// onEvent as it happens, and returns the decoded result once the job is
// terminal. A submission that resolves from the cache skips straight to
// the result.
func (c *Client) RunStreaming(ctx context.Context, spec server.JobSpec, onEvent func(server.JobEvent)) (*stats.Run, server.JobStatus, error) {
	spec.Progress = true
	st, err := c.Submit(ctx, spec, false)
	if err != nil {
		return nil, st, err
	}
	if !st.State.Terminal() {
		if err := c.Follow(ctx, st.ID, onEvent); err != nil {
			return nil, st, err
		}
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		return nil, st, err
	}
	final.Cache = st.Cache
	run, err := decodeResult(final)
	return run, final, err
}

func decodeResult(st server.JobStatus) (*stats.Run, error) {
	if st.State != server.StateDone {
		msg := st.Error
		if msg == "" {
			msg = "no result"
		}
		return nil, fmt.Errorf("comad: job %s is %s: %s", server.ShortID(st.ID), st.State, msg)
	}
	var run stats.Run
	if err := json.Unmarshal(st.Result, &run); err != nil {
		return nil, fmt.Errorf("comad: decoding result payload: %w", err)
	}
	return &run, nil
}

// Status fetches a job; terminal done jobs include the result payload.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches the raw canonical result payload.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.getRaw(ctx, "/v1/jobs/"+id+"/result")
}

// Receipt fetches a done job's execution receipt: the canonical
// coma-receipt/v1 JSON attesting the run (verify offline with
// `comatrace attest`).
func (c *Client) Receipt(ctx context.Context, id string) ([]byte, error) {
	return c.getRaw(ctx, "/v1/jobs/"+id+"/receipt")
}

// Trace fetches the JSONL observability trace recorded for a done job,
// when the daemon executed it locally and kept one.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	return c.getRaw(ctx, "/v1/jobs/"+id+"/trace")
}

// getRaw fetches a sub-resource as uninterpreted bytes.
func (c *Client) getRaw(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Follow subscribes to a job's SSE stream and forwards each event to fn,
// returning when the job reaches a terminal state (the daemon closes the
// stream after the final state event) or ctx expires.
func (c *Client) Follow(ctx context.Context, id string, fn func(server.JobEvent)) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for scanner.Scan() {
		data, ok := strings.CutPrefix(scanner.Text(), "data: ")
		if !ok {
			continue // id:, event:, blank separators
		}
		var ev server.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("comad: bad event frame %q: %w", data, err)
		}
		if fn != nil {
			fn(ev)
		}
	}
	return scanner.Err()
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (server.Health, error) {
	var h server.Health
	err := c.call(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches the raw Prometheus exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, err := c.getRaw(ctx, "/metrics")
	return string(body), err
}
