package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"coma/internal/config"
	"coma/internal/obs/receipt"
)

// This file is the cluster coordinator: the scheduler comad runs with
// Options.Cluster set. Instead of in-process executors, registered
// worker nodes (comad node, internal/cluster) drain the daemon's one
// dispatch queue over HTTP/JSON:
//
//	POST   /v1/workers                 register  -> worker id + lease terms
//	GET    /v1/workers                 fleet listing
//	POST   /v1/workers/{id}/heartbeat  liveness + lease renewal + progress
//	POST   /v1/workers/{id}/lease      claim one job (long-poll)
//	POST   /v1/workers/{id}/complete   deliver one job's result payload and last progress
//	DELETE /v1/workers/{id}            graceful leave; leases requeue
//
// Fault tolerance eats the paper's dogfood: a lease is a job id in its
// worker's lease set, and one timestamp per worker, renewed by every
// contact, judges liveness; a worker that misses its liveness window is
// declared dead and every lease it held expires back onto the
// queue (requeue counter per job, dead-letter past Options.MaxRequeues).
// Re-execution is always safe because jobs are content-addressed by
// config.RunIdentity: any worker computes byte-identical payloads for a
// given identity, so the first completion wins and stale completions
// from zombie workers are accepted or discarded without harm.
//
// One queue: a lease hands out at most one job, and a worker asks for
// one only when a slot is idle, so every lease is a running job and
// work not yet started waits nowhere but in the queue. No worker ever
// holds a backlog that another could have started.
//
// There is no sweeper goroutine: expiry is evaluated lazily, inside
// every worker-facing handler and the metrics scrape, against the wall
// clock at that moment. A fleet that is polling for work therefore
// detects dead peers within one poll interval, and a coordinator with
// no live workers has nobody to run requeued work for anyway.

// Cluster-mode defaults; overridable through Options.
const (
	DefaultLeaseTTL       = 15 * time.Second
	DefaultHeartbeatEvery = 5 * time.Second
	DefaultMaxRequeues    = 3
)

// RegisterRequest is the wire format of POST /v1/workers.
type RegisterRequest struct {
	// Name labels the worker in listings and logs (not necessarily
	// unique; the coordinator assigns the id).
	Name string `json:"name"`
	// Slots is how many simulations the worker runs concurrently, each
	// on its own lease; shown in the fleet listing.
	Slots int `json:"slots"`
	// Revision is the worker's code revision. A coordinator refuses
	// workers built from different code: results are cached under the
	// coordinator's revision, so a mismatched worker would poison the
	// content-addressed store.
	Revision string `json:"revision,omitempty"`
}

// RegisterResponse answers a successful registration with the assigned
// identity and the lease terms the worker must live by.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is the liveness window: a worker silent for this long
	// is dead and its leases requeue.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// HeartbeatMS is the coordinator's suggested heartbeat period
	// (a fraction of the lease TTL).
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// LeaseRequest is the wire format of POST /v1/workers/{id}/lease.
type LeaseRequest struct {
	// WaitMS long-polls: the coordinator holds the request up to this
	// long for work to arrive before answering empty.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// LeasedJob is one unit of work handed to a worker: the canonical run
// identity (exactly the bytes-defining cache key the coordinator
// stores results under) plus lease metadata.
type LeasedJob struct {
	JobID    string             `json:"job_id"`
	Identity config.RunIdentity `json:"identity"`
	// Progress asks the worker to forward lifecycle progress events for
	// the job's SSE stream.
	Progress bool `json:"progress,omitempty"`
	// Attempt counts prior lease expiries of this job.
	Attempt int `json:"attempt,omitempty"`
}

// LeaseResponse carries the newly leased job, if any.
type LeaseResponse struct {
	Job *LeasedJob `json:"job,omitempty"`
	// Draining tells the worker the coordinator has drained: it refuses
	// new jobs and none is left queued or running, so no further work
	// will come. A coordinator that is still draining keeps leasing its
	// queued jobs.
	Draining bool `json:"draining,omitempty"`
}

// HeartbeatRequest reports liveness, renewing every lease the worker
// holds, and carries the progress events buffered since the last beat
// for the jobs' SSE streams.
type HeartbeatRequest struct {
	Progress []ProgressEvent `json:"progress,omitempty"`
}

// WorkerAck answers a heartbeat or an accepted completion.
type WorkerAck struct {
	// Draining tells the worker the coordinator has drained (see
	// LeaseResponse). A completion carries it because a coordinator
	// that has drained stops listening, and the worker that finished its
	// last job may have no request in flight to learn it from.
	Draining bool `json:"draining,omitempty"`
}

// CompleteRequest delivers one leased job's outcome: the canonical
// result payload bytes on success, or the simulation's error. A
// simulation error is deterministic (same identity, same error), so the
// job fails instead of requeueing.
type CompleteRequest struct {
	JobID  string          `json:"job_id"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Receipt is the worker's execution receipt for the run (canonical
	// coma-receipt/v1 bytes). The coordinator recomputes the result
	// digest against it before accepting the payload; when the
	// coordinator holds a receipt key, the receipt must verify under it.
	Receipt json.RawMessage `json:"receipt,omitempty"`
	// Progress is the job's progress not yet sent on a heartbeat; it is
	// filed before the terminal state event.
	Progress []ProgressEvent `json:"progress,omitempty"`
}

// ProgressEvent is one forwarded progress line for SSE re-broadcast.
type ProgressEvent struct {
	JobID     string `json:"job_id"`
	Message   string `json:"message"`
	SimCycles int64  `json:"sim_cycles,omitempty"`
}

// fileProgressLocked appends forwarded progress lines to their jobs'
// event logs; lines for unknown or finished jobs are dropped. Caller
// holds the server mutex.
func (s *Server) fileProgressLocked(events []ProgressEvent) {
	for _, ev := range events {
		if j, ok := s.jobs[ev.JobID]; ok && !j.state.Terminal() {
			s.appendEventLocked(j, JobEvent{Type: "progress", Message: ev.Message, SimCycles: ev.SimCycles})
		}
	}
}

// WorkerStatus is one row of GET /v1/workers.
type WorkerStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"` // "active" or "dead"
	Slots int    `json:"slots"`
	// Leases is every job currently leased to, and so running on, the
	// worker.
	Leases      int     `json:"leases"`
	Completed   int64   `json:"completed"`
	SinceBeatMS float64 `json:"since_beat_ms"`
}

// Worker lifecycle states (WorkerStatus.State and the
// coma_cluster_workers gauge label).
const (
	workerActive = "active"
	workerDead   = "dead"
)

// worker is the coordinator's view of one registered node. Guarded by
// the server mutex, like all scheduler state.
type worker struct {
	id    string
	name  string
	slots int
	state string

	// lastBeat is the worker's last contact (register, heartbeat, lease
	// or complete call): the only liveness input sweepLocked reads.
	lastBeat time.Time
	// leases is the set of job ids leased to, and running on, the worker.
	leases    map[string]struct{}
	completed int64
}

// clusterTable is the coordinator's worker registry and lease counters,
// embedded in Server and guarded by its mutex. The queue it leases from
// is the Server's.
type clusterTable struct {
	leaseTTL       time.Duration
	heartbeatEvery time.Duration
	maxRequeues    int

	nextWorker int
	workers    map[string]*worker

	// Counters exported on /metrics.
	leaseExpiries int64
	requeues      int64
	// digestMismatches counts completions rejected because the payload
	// failed round-trip validation or its receipt's digest/signature.
	digestMismatches int64
}

func newClusterTable(opts Options) *clusterTable {
	return &clusterTable{
		leaseTTL:       opts.LeaseTTL,
		heartbeatEvery: opts.HeartbeatEvery,
		maxRequeues:    opts.MaxRequeues,
		workers:        make(map[string]*worker),
	}
}

// sweepLocked evaluates liveness at now: workers silent for a full
// lease TTL are declared dead and every lease they hold expires back
// onto the queue. Called from every worker-facing handler and the
// metrics scrape; caller holds the server mutex.
func (s *Server) sweepLocked(now time.Time) {
	for _, w := range s.clu.workers {
		if w.state != workerActive {
			continue
		}
		if now.Sub(w.lastBeat) <= s.clu.leaseTTL {
			continue
		}
		w.state = workerDead
		s.logf("cluster: worker %s (%s) lost: no heartbeat for %v, %d lease(s) expire",
			w.id, w.name, now.Sub(w.lastBeat).Round(time.Millisecond), len(w.leases))
		for id := range w.leases {
			delete(w.leases, id)
			s.clu.leaseExpiries++
			if j, ok := s.jobs[id]; ok && !j.state.Terminal() {
				s.requeueLocked(j, fmt.Sprintf("lease expired on worker %s", w.id), true)
			}
		}
	}
}

// requeueLocked moves a running cluster job back to the dispatch queue
// (or dead-letters it once it has burned its retries). countAttempt is
// false for voluntary returns (worker deregistration), which should not
// push a job toward the dead letter state. Caller holds the server
// mutex; the job must be non-terminal.
func (s *Server) requeueLocked(j *job, why string, countAttempt bool) {
	s.clu.requeues++
	if countAttempt {
		j.attempts++
	}
	j.workerID = ""
	if countAttempt && j.attempts > s.clu.maxRequeues {
		j.errMsg = fmt.Sprintf("dead-lettered after %d lease expiries (max %d requeues): %s",
			j.attempts, s.clu.maxRequeues, why)
		s.finishLocked(j, StateDeadLetter)
		s.logf("job %s: dead-lettered (%s)", ShortID(j.id), why)
		return
	}
	j.startedAt = time.Time{}
	s.setStateLocked(j, StateQueued)
	s.appendEventLocked(j, JobEvent{Type: "progress",
		Message: fmt.Sprintf("requeued (attempt %d): %s", j.attempts, why)})
	s.enqueueLocked(j, true)
	s.logf("job %s: requeued (attempt %d): %s", ShortID(j.id), j.attempts, why)
}

// leaseLocked pops the next queued job and leases it to w, or returns
// nil when the queue is empty. Caller holds the server mutex.
func (s *Server) leaseLocked(w *worker, now time.Time) *LeasedJob {
	j := s.popPendingLocked(now)
	if j == nil {
		return nil
	}
	w.leases[j.id] = struct{}{}
	j.workerID = w.id
	s.startLocked(j, now)
	s.appendEventLocked(j, JobEvent{Type: "progress",
		Message: fmt.Sprintf("leased to worker %s (%s)", w.id, w.name)})
	return &LeasedJob{JobID: j.id, Identity: j.identity, Progress: j.spec.Progress, Attempt: j.attempts}
}

// clusterStats is the /metrics snapshot of the scheduler.
type clusterStats struct {
	enabled          bool
	active, dead     int
	leaseExpiries    int64
	requeues         int64
	digestMismatches int64
}

// clusterStatsLocked snapshots the worker registry for the metrics
// scrape. Caller holds the server mutex.
func (s *Server) clusterStatsLocked() clusterStats {
	st := clusterStats{enabled: s.opts.Cluster}
	st.leaseExpiries = s.clu.leaseExpiries
	st.requeues = s.clu.requeues
	st.digestMismatches = s.clu.digestMismatches
	for _, w := range s.clu.workers {
		switch w.state {
		case workerActive:
			st.active++
		case workerDead:
			st.dead++
		}
	}
	return st
}

// ---- HTTP handlers ----

// clusterOnly guards worker-facing endpoints on non-cluster daemons.
func (s *Server) clusterOnly(w http.ResponseWriter) bool {
	if !s.opts.Cluster {
		s.respondError(w, http.StatusNotFound,
			errors.New("not a cluster coordinator (start comad serve -cluster)"))
		return false
	}
	return true
}

// lookupWorker resolves {id}; unknown or dead workers get 410 so agents
// know to re-register rather than retry.
func (s *Server) lookupWorker(w http.ResponseWriter, r *http.Request) *worker {
	s.mu.Lock()
	wk := s.clu.workers[r.PathValue("id")]
	if wk != nil && wk.state != workerActive {
		wk = nil
	}
	s.mu.Unlock()
	if wk == nil {
		s.respondError(w, http.StatusGone, errors.New("unknown worker (re-register)"))
	}
	return wk
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if !s.clusterOnly(w) {
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	var req RegisterRequest
	if err := dec.Decode(&req); err != nil {
		s.respondError(w, http.StatusBadRequest, fmt.Errorf("decoding register request: %w", err))
		return
	}
	if req.Slots < 1 {
		req.Slots = 1
	}
	if req.Revision != "" && s.opts.Revision != "" && req.Revision != s.opts.Revision {
		s.respondError(w, http.StatusConflict, fmt.Errorf(
			"revision mismatch: worker built at %q, coordinator at %q — results would poison the cache",
			req.Revision, s.opts.Revision))
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.clu.nextWorker++
	wk := &worker{
		id:       fmt.Sprintf("w%d", s.clu.nextWorker),
		name:     req.Name,
		slots:    req.Slots,
		state:    workerActive,
		lastBeat: now,
		leases:   make(map[string]struct{}),
	}
	s.clu.workers[wk.id] = wk
	s.mu.Unlock()
	s.logf("cluster: worker %s registered (%s, %d slot(s))", wk.id, wk.name, wk.slots)
	s.respondJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:    wk.id,
		LeaseTTLMS:  s.clu.leaseTTL.Milliseconds(),
		HeartbeatMS: s.clu.heartbeatEvery.Milliseconds(),
	})
}

func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	if !s.clusterOnly(w) {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.sweepLocked(now)
	list := make([]WorkerStatus, 0, len(s.clu.workers))
	for i := 1; i <= s.clu.nextWorker; i++ { // stable id order
		wk, ok := s.clu.workers[fmt.Sprintf("w%d", i)]
		if !ok {
			continue
		}
		list = append(list, WorkerStatus{
			ID: wk.id, Name: wk.name, State: wk.state, Slots: wk.slots,
			Leases:      len(wk.leases),
			Completed:   wk.completed,
			SinceBeatMS: msBetween(wk.lastBeat, now),
		})
	}
	queued := s.queued
	s.mu.Unlock()
	s.respondJSON(w, http.StatusOK, map[string]any{"workers": list, "queued": queued})
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.clusterOnly(w) {
		return
	}
	wk := s.lookupWorker(w, r)
	if wk == nil {
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	var req HeartbeatRequest
	if err := dec.Decode(&req); err != nil {
		s.respondError(w, http.StatusBadRequest, fmt.Errorf("decoding heartbeat: %w", err))
		return
	}
	now := time.Now()
	s.mu.Lock()
	wk.lastBeat = now
	s.fileProgressLocked(req.Progress)
	s.sweepLocked(now)
	resp := WorkerAck{Draining: s.drainedLocked()}
	s.mu.Unlock()
	s.respondJSON(w, http.StatusOK, resp)
}

// leasePollEvery bounds how long a long-polling lease handler sleeps
// between dispatch attempts, so lazy sweeps keep running while a fleet
// waits for work.
const leasePollEvery = 250 * time.Millisecond

func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	if !s.clusterOnly(w) {
		return
	}
	wk := s.lookupWorker(w, r)
	if wk == nil {
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	var req LeaseRequest
	if err := dec.Decode(&req); err != nil {
		s.respondError(w, http.StatusBadRequest, fmt.Errorf("decoding lease request: %w", err))
		return
	}
	deadline := time.Now().Add(time.Duration(req.WaitMS) * time.Millisecond)
	for {
		now := time.Now()
		s.mu.Lock()
		if wk.state != workerActive {
			// Declared dead mid-poll (a very slow long-poll): the agent
			// must re-register before it may hold leases again.
			s.mu.Unlock()
			s.respondError(w, http.StatusGone, errors.New("unknown worker (re-register)"))
			return
		}
		wk.lastBeat = now
		s.sweepLocked(now)
		resp := LeaseResponse{Job: s.leaseLocked(wk, now), Draining: s.drainedLocked()}
		wake := s.wake
		s.mu.Unlock()

		if resp.Job != nil || resp.Draining || !now.Before(deadline) {
			s.respondJSON(w, http.StatusOK, resp)
			return
		}
		sleep := time.Until(deadline)
		if sleep > leasePollEvery {
			sleep = leasePollEvery
		}
		timer := time.NewTimer(sleep)
		select {
		case <-wake:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

func (s *Server) handleWorkerComplete(w http.ResponseWriter, r *http.Request) {
	if !s.clusterOnly(w) {
		return
	}
	s.mu.Lock()
	wk := s.clu.workers[r.PathValue("id")]
	s.mu.Unlock()
	if wk == nil {
		// Even a worker we have declared dead may deliver a result it
		// finished before anyone noticed — but one we never knew cannot.
		s.respondError(w, http.StatusGone, errors.New("unknown worker (re-register)"))
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	var req CompleteRequest
	if err := dec.Decode(&req); err != nil {
		s.respondError(w, http.StatusBadRequest, fmt.Errorf("decoding completion: %w", err))
		return
	}
	if req.Error == "" && len(req.Result) == 0 {
		s.respondError(w, http.StatusBadRequest, errors.New("completion carries neither result nor error"))
		return
	}

	// Validate the payload before it can touch the store: the result
	// must survive a MarshalResult round trip, and the worker's receipt
	// (when present — always, when a receipt key is enforced) must name
	// this job and carry the payload's exact digest. Pure CPU, so it
	// runs outside the scheduler lock.
	var vErr error
	var rcpt receipt.Receipt
	var hasReceipt bool
	if req.Error == "" {
		rcpt, hasReceipt, vErr = s.validateCompletion(req)
	}

	// The outcome to file — the payload plus the worker's receipt, or
	// one synthesized here — is built outside the lock; completeLocked
	// stores it before the job turns done. Jobs are never dropped from
	// s.jobs and their identity never changes, so this read is the job
	// the locked section below completes.
	s.mu.Lock()
	j, ok := s.jobs[req.JobID]
	s.mu.Unlock()
	out := Outcome{Payload: req.Result}
	if req.Error != "" {
		out = Outcome{Err: errors.New(req.Error)}
	} else if ok && vErr == nil {
		if !hasReceipt {
			// Worker sent no receipt (older agent, or its receipt build failed):
			// synthesize an unchecked one from the validated payload so
			// every completed job still serves /receipt.
			var bErr error
			rcpt, _, bErr = receipt.Build(j.identity, req.Result, nil, workerProducer(wk))
			if bErr == nil && len(s.opts.ReceiptKey) > 0 {
				rcpt = rcpt.Sign(s.opts.ReceiptKey)
			}
			hasReceipt = bErr == nil
		}
		if hasReceipt {
			out.Receipt = &rcpt
		}
	}

	now := time.Now()
	s.mu.Lock()
	if wk.state == workerActive {
		wk.lastBeat = now
	}
	if !ok {
		s.mu.Unlock()
		s.respondError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	delete(wk.leases, req.JobID)
	if j.state.Terminal() {
		if vErr != nil {
			// Corrupt duplicate: the job already completed from elsewhere,
			// so the poison had nowhere to land — still refuse it.
			s.clu.digestMismatches++
			s.mu.Unlock()
			s.respondError(w, http.StatusUnprocessableEntity, vErr)
			return
		}
		// Duplicate completion (requeue raced the original worker):
		// determinism makes both results identical, first one won.
		ack := WorkerAck{Draining: s.drainedLocked()}
		s.mu.Unlock()
		s.respondJSON(w, http.StatusOK, ack)
		return
	}
	if vErr != nil {
		// A corrupt or byzantine completion is treated like a lease
		// expiry: the attempt is burned and the job goes back on the
		// queue for a different execution (dead-letter past the limit).
		s.clu.digestMismatches++
		if j.state == StateRunning && j.workerID == wk.id {
			s.requeueLocked(j, fmt.Sprintf("completion from worker %s rejected: %v", wk.id, vErr), true)
		}
		s.mu.Unlock()
		s.logf("job %s: completion from worker %s rejected: %v", ShortID(req.JobID), wk.id, vErr)
		s.respondError(w, http.StatusUnprocessableEntity, vErr)
		return
	}
	// A zombie may finish a job that was already requeued: the result is
	// accepted all the same, straight from the queued state.
	wk.completed++
	s.fileProgressLocked(req.Progress)
	s.completeLocked(j, out, now, " on worker "+wk.id)
	ack := WorkerAck{Draining: s.drainedLocked()}
	s.mu.Unlock()
	s.respondJSON(w, http.StatusOK, ack)
}

// workerProducer is the producer identity recorded in receipts for a
// worker's runs.
func workerProducer(wk *worker) string {
	if wk.name != "" {
		return wk.name
	}
	return wk.id
}

// validateCompletion checks a successful completion before it is
// accepted: the result payload must round-trip through the canonical
// MarshalResult encoding, and the attached receipt — mandatory when the
// coordinator enforces a receipt key — must parse, verify, name this
// job's content address, and record the payload's exact SHA-256. The
// returned receipt is the worker's (hasReceipt true) or zero.
func (s *Server) validateCompletion(req CompleteRequest) (rcpt receipt.Receipt, hasReceipt bool, err error) {
	if _, perr := receipt.ParseResult(req.Result); perr != nil {
		return rcpt, false, fmt.Errorf("result payload rejected: %w", perr)
	}
	if len(req.Receipt) == 0 {
		if len(s.opts.ReceiptKey) > 0 {
			return rcpt, false, errors.New("receipt required: coordinator enforces signed receipts")
		}
		return rcpt, false, nil
	}
	rcpt, perr := receipt.Parse(req.Receipt)
	if perr != nil {
		return rcpt, false, fmt.Errorf("receipt rejected: %w", perr)
	}
	if len(s.opts.ReceiptKey) > 0 {
		if serr := rcpt.VerifySignature(s.opts.ReceiptKey); serr != nil {
			return rcpt, false, fmt.Errorf("receipt signature rejected: %w", serr)
		}
	}
	if rcpt.RunHash != req.JobID {
		return rcpt, false, fmt.Errorf("receipt names run %s, not job %s",
			ShortID(rcpt.RunHash), ShortID(req.JobID))
	}
	if got := receipt.Digest(req.Result); got != rcpt.ResultDigest {
		return rcpt, false, fmt.Errorf("result digest mismatch: receipt records %s, payload hashes to %s",
			ShortID(rcpt.ResultDigest), ShortID(got))
	}
	return rcpt, true, nil
}

func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	if !s.clusterOnly(w) {
		return
	}
	s.mu.Lock()
	wk := s.clu.workers[r.PathValue("id")]
	if wk == nil {
		s.mu.Unlock()
		s.respondError(w, http.StatusGone, errors.New("unknown worker"))
		return
	}
	returned := 0
	for id := range wk.leases {
		delete(wk.leases, id)
		if j, ok := s.jobs[id]; ok && !j.state.Terminal() {
			// Voluntary return: requeue without burning an attempt.
			s.requeueLocked(j, fmt.Sprintf("worker %s deregistered", wk.id), false)
			returned++
		}
	}
	delete(s.clu.workers, wk.id)
	// A lease long-poll still in flight for this worker holds it by
	// pointer: mark it gone, so the poll answers 410 instead of leasing
	// a job to a worker nothing tracks any more.
	wk.state = workerDead
	s.mu.Unlock()
	s.logf("cluster: worker %s (%s) deregistered, %d lease(s) returned", wk.id, wk.name, returned)
	s.respondJSON(w, http.StatusOK, map[string]any{"status": "ok", "returned": returned})
}
