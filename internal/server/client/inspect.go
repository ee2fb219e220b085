package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"coma/internal/inspect"
	"coma/internal/server"
)

// JobList is the decoded body of GET /v1/jobs.
type JobList struct {
	Jobs    []server.JobStatus `json:"jobs"`
	Queued  int                `json:"queued"`
	Running int                `json:"running"`
}

// Jobs lists every job the daemon knows about, in submission order.
// comad top uses it to discover a running job to attach to.
func (c *Client) Jobs(ctx context.Context) (JobList, error) {
	var list JobList
	err := c.call(ctx, http.MethodGet, "/v1/jobs", nil, &list)
	return list, err
}

// Inspect queries one view of a running job's live state. view is
// "summary", "node", "queues" or "line"; for "line", params carries the
// item= or addr= selector (nil otherwise). The raw JSON is returned so
// callers can decode into the matching inspect view type.
func (c *Client) Inspect(ctx context.Context, id, view string, params url.Values) (json.RawMessage, error) {
	q := url.Values{}
	for k, vs := range params {
		q[k] = vs
	}
	if view != "" {
		q.Set("view", view)
	}
	path := "/v1/jobs/" + id + "/inspect"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var raw json.RawMessage
	err := c.call(ctx, http.MethodGet, path, nil, &raw)
	return raw, err
}

// InspectSummary queries the typed summary view.
func (c *Client) InspectSummary(ctx context.Context, id string) (inspect.SummaryView, error) {
	var sv inspect.SummaryView
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/inspect?view=summary", nil, &sv)
	return sv, err
}

// InspectStream subscribes to a running job's sampled-snapshot SSE
// stream, forwarding each sample to fn. fn returning false detaches
// (never perturbing the run). InspectStream returns nil when the stream
// ends with the terminal sample, fn detaches, or ctx expires after at
// least one sample; it returns an error if the job was never streamable.
func (c *Client) InspectStream(ctx context.Context, id string, fn func(inspect.Sample) bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/inspect/stream", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64<<10), 1<<20)
	seen := false
	for scanner.Scan() {
		data, ok := strings.CutPrefix(scanner.Text(), "data: ")
		if !ok {
			continue // id:, event:, blank separators
		}
		var smp inspect.Sample
		if err := json.Unmarshal([]byte(data), &smp); err != nil {
			return fmt.Errorf("comad: bad sample frame %q: %w", data, err)
		}
		seen = true
		if fn != nil && !fn(smp) {
			return nil
		}
	}
	if err := scanner.Err(); err != nil && !(seen && ctx.Err() != nil) {
		return err
	}
	return nil
}
