package client

import (
	"context"
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
	err := c.call(ctx, http.MethodPost, "/v1/workers", req, &resp)
	return resp, err
}

// LeaseJob asks the coordinator for one job. With req.WaitMS set the
// call long-polls: the coordinator holds it until work arrives or the
// wait expires. A 410 (IsGone) means the coordinator no longer knows
// this worker — re-register.
func (c *Client) LeaseJob(ctx context.Context, workerID string, req server.LeaseRequest) (server.LeaseResponse, error) {
	var resp server.LeaseResponse
	err := c.call(ctx, http.MethodPost, "/v1/workers/"+workerID+"/lease", req, &resp)
	return resp, err
}

// Heartbeat renews the worker's leases and forwards buffered progress.
func (c *Client) Heartbeat(ctx context.Context, workerID string, req server.HeartbeatRequest) (server.WorkerAck, error) {
	var resp server.WorkerAck
	err := c.call(ctx, http.MethodPost, "/v1/workers/"+workerID+"/heartbeat", req, &resp)
	return resp, err
}

// CompleteJob delivers one leased job's outcome: canonical result bytes
// (server.MarshalResult) on success, the simulation error otherwise.
func (c *Client) CompleteJob(ctx context.Context, workerID string, req server.CompleteRequest) (server.WorkerAck, error) {
	var resp server.WorkerAck
	err := c.call(ctx, http.MethodPost, "/v1/workers/"+workerID+"/complete", req, &resp)
	return resp, err
}

// DeregisterWorker announces a graceful departure; the coordinator
// requeues the worker's leases without counting an attempt.
func (c *Client) DeregisterWorker(ctx context.Context, workerID string) error {
	return c.call(ctx, http.MethodDelete, "/v1/workers/"+workerID, nil, nil)
}

// Workers lists the coordinator's registered worker nodes and the
// number of jobs still waiting in the cluster queue.
func (c *Client) Workers(ctx context.Context) ([]server.WorkerStatus, int, error) {
	var resp struct {
		Workers []server.WorkerStatus `json:"workers"`
		Queued  int                   `json:"queued"`
	}
	err := c.call(ctx, http.MethodGet, "/v1/workers", nil, &resp)
	return resp.Workers, resp.Queued, err
}
