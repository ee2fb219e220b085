package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"

	"coma/internal/server"
)

// Worker-node API: the typed surface of the coordinator's lease
// protocol (internal/server/cluster.go), used by the internal/cluster
// agent. Like the job API, all calls are synchronous and bounded by the
// caller's context.

// RegisterWorker registers a worker node with a cluster coordinator and
// returns the assigned identity plus lease terms.
func (c *Client) RegisterWorker(ctx context.Context, req server.RegisterRequest) (server.RegisterResponse, error) {
	var resp server.RegisterResponse
	err := c.postJSON(ctx, "/v1/workers", req, &resp)
	return resp, err
}

// LeaseJob asks the coordinator for one job. With req.WaitMS set the
// call long-polls: the coordinator holds it until work arrives or the
// wait expires. A 410 (IsGone) means the coordinator no longer knows
// this worker — re-register.
func (c *Client) LeaseJob(ctx context.Context, workerID string, req server.LeaseRequest) (server.LeaseResponse, error) {
	var resp server.LeaseResponse
	err := c.postJSON(ctx, "/v1/workers/"+workerID+"/lease", req, &resp)
	return resp, err
}

// Heartbeat renews the worker's leases and forwards buffered progress.
func (c *Client) Heartbeat(ctx context.Context, workerID string, req server.HeartbeatRequest) (server.WorkerAck, error) {
	var resp server.WorkerAck
	err := c.postJSON(ctx, "/v1/workers/"+workerID+"/heartbeat", req, &resp)
	return resp, err
}

// CompleteJob delivers one leased job's outcome: canonical result bytes
// (server.MarshalResult) on success, the simulation error otherwise.
func (c *Client) CompleteJob(ctx context.Context, workerID string, req server.CompleteRequest) (server.WorkerAck, error) {
	var resp server.WorkerAck
	err := c.postJSON(ctx, "/v1/workers/"+workerID+"/complete", req, &resp)
	return resp, err
}

// DeregisterWorker announces a graceful departure; the coordinator
// requeues the worker's leases without counting an attempt.
func (c *Client) DeregisterWorker(ctx context.Context, workerID string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/workers/"+workerID, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}

// Workers lists the coordinator's registered worker nodes and the
// number of jobs still waiting in the cluster queue.
func (c *Client) Workers(ctx context.Context) ([]server.WorkerStatus, int, error) {
	var resp struct {
		Workers []server.WorkerStatus `json:"workers"`
		Queued  int                   `json:"queued"`
	}
	err := c.getJSON(ctx, "/v1/workers", &resp)
	return resp.Workers, resp.Queued, err
}

func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
