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
// Options.Cluster set. Instead of executing jobs on the in-process
// runner pool, the coordinator owns a dispatch queue that registered
// worker nodes (cmd/comanode, internal/cluster) drain over HTTP/JSON:
//
//	POST   /v1/workers                 register  -> worker id + lease terms
//	GET    /v1/workers                 fleet listing
//	POST   /v1/workers/{id}/heartbeat  liveness + lease renewal + revocations
//	POST   /v1/workers/{id}/lease      claim up to n jobs (long-poll)
//	POST   /v1/workers/{id}/complete   deliver one job's result payload
//	POST   /v1/workers/{id}/progress   forward progress events for SSE
//	DELETE /v1/workers/{id}            graceful leave; leases requeue
//
// Fault tolerance eats the paper's dogfood: a lease is job id +
// deadline, renewed by heartbeats; a worker that misses its liveness
// window is declared dead and every lease it held expires back onto the
// queue (requeue counter per job, dead-letter past Options.MaxRequeues).
// Re-execution is always safe because jobs are content-addressed by
// config.RunIdentity: any worker computes byte-identical payloads for a
// given identity, so the first completion wins and stale completions
// from zombie workers are accepted or discarded without harm.
//
// Work stealing: an idle worker whose lease request finds the queue
// empty takes unstarted leases from the backlog of the most loaded
// worker; the victim learns about it through the revocation list on its
// next heartbeat or lease response. Because execution is idempotent,
// the revocation race (victim starts a job just as it is stolen) is
// benign — whichever result arrives first completes the job.
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
	// Slots is how many simulations the worker runs concurrently; the
	// scheduler uses it to size lease batches.
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
	// Max bounds the jobs returned (0: 1).
	Max int `json:"max"`
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

// LeaseResponse carries newly leased jobs plus any pending revocations
// (jobs stolen from this worker since it last asked).
type LeaseResponse struct {
	Jobs    []LeasedJob `json:"jobs,omitempty"`
	Revoked []string    `json:"revoked,omitempty"`
	// Draining tells the worker the coordinator is shutting down: finish
	// what you hold, expect no further work.
	Draining bool `json:"draining,omitempty"`
}

// HeartbeatRequest reports liveness and which leased jobs have actually
// started executing (the unstarted remainder is the worker's stealable
// backlog).
type HeartbeatRequest struct {
	Running []string `json:"running,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	Revoked  []string `json:"revoked,omitempty"`
	Draining bool     `json:"draining,omitempty"`
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
}

// ProgressEvent is one forwarded progress line for SSE re-broadcast.
type ProgressEvent struct {
	Message   string `json:"message"`
	SimCycles int64  `json:"sim_cycles,omitempty"`
}

// ProgressRequest batches progress events for one job.
type ProgressRequest struct {
	JobID  string          `json:"job_id"`
	Events []ProgressEvent `json:"events"`
}

// WorkerStatus is one row of GET /v1/workers.
type WorkerStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"` // "active" or "dead"
	Slots int    `json:"slots"`
	// Leases is every job currently leased to the worker; Running is the
	// subset it has reported started (the difference is its stealable
	// backlog).
	Leases      int     `json:"leases"`
	Running     int     `json:"running"`
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

	lastBeat time.Time
	// leases maps job id -> lease deadline (renewed on every heartbeat
	// and lease call).
	leases map[string]time.Time
	// running is the subset of leases the worker reported started; the
	// complement is its stealable backlog.
	running map[string]bool
	// revoked accumulates stolen job ids until the worker's next
	// heartbeat or lease response delivers them.
	revoked   []string
	completed int64
}

// unstarted counts leased-but-not-started jobs (the stealable backlog).
func (w *worker) unstarted() int {
	n := 0
	for id := range w.leases {
		if !w.running[id] {
			n++
		}
	}
	return n
}

// clusterTable is the coordinator's scheduler state, embedded in Server
// and guarded by its mutex.
type clusterTable struct {
	leaseTTL       time.Duration
	heartbeatEvery time.Duration
	maxRequeues    int

	nextWorker int
	workers    map[string]*worker
	// pending is the dispatch queue: job ids awaiting a lease, FIFO,
	// with requeued jobs pushed to the front so retried work finishes
	// first. Entries whose job left the queued state are skipped lazily.
	pending []string
	// wake is closed and replaced whenever pending grows, releasing
	// long-polling lease handlers.
	wake chan struct{}

	// Counters exported on /metrics.
	leaseExpiries int64
	requeues      int64
	steals        int64
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
		wake:           make(chan struct{}),
	}
}

// wakeLocked releases every long-polling lease handler. Caller holds
// the server mutex.
func (c *clusterTable) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// enqueueLocked adds a job to the dispatch queue (front for requeues,
// back for new admissions) and wakes lease pollers.
func (s *Server) enqueueLocked(j *job, front bool) {
	if front {
		s.clu.pending = append([]string{j.id}, s.clu.pending...)
	} else {
		s.clu.pending = append(s.clu.pending, j.id)
	}
	s.clu.wakeLocked()
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
			delete(w.running, id)
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
	if j.state == StateRunning {
		s.running--
	}
	if countAttempt && j.attempts > s.clu.maxRequeues {
		j.errMsg = fmt.Sprintf("dead-lettered after %d lease expiries (max %d requeues): %s",
			j.attempts, s.clu.maxRequeues, why)
		s.finishLocked(j, StateDeadLetter)
		s.logf("job %s: dead-lettered (%s)", shortID(j.id), why)
		return
	}
	j.state = StateQueued
	j.dequeued = false
	j.startedAt = time.Time{}
	s.queued++
	s.appendEventLocked(j, JobEvent{Type: "state", State: StateQueued})
	s.appendEventLocked(j, JobEvent{Type: "progress",
		Message: fmt.Sprintf("requeued (attempt %d): %s", j.attempts, why)})
	s.enqueueLocked(j, true)
	s.logf("job %s: requeued (attempt %d): %s", shortID(j.id), j.attempts, why)
}

// assignLocked hands up to max queued jobs to w, stealing from the most
// backlogged peer when the queue runs dry. Caller holds the server
// mutex.
func (s *Server) assignLocked(w *worker, max int, now time.Time) []LeasedJob {
	var out []LeasedJob
	for len(out) < max {
		j := s.popPendingLocked()
		if j == nil {
			break
		}
		if !j.deadline.IsZero() && now.After(j.deadline) {
			// Deadline burned while queued: fail it here rather than
			// waste a worker slot on it.
			s.queued--
			j.dequeued = true
			j.errMsg = "deadline exceeded while queued"
			s.finishLocked(j, StateFailed)
			continue
		}
		out = append(out, s.leaseToLocked(w, j, now, false))
	}
	// Queue empty and capacity left: steal unstarted leases from the
	// slowest (most backlogged) worker, one at a time, as long as the
	// victim still holds a deeper unstarted backlog than the requester
	// (freshly assigned jobs above already count against w: the lease
	// moved to it).
	for len(out) < max {
		victim := s.stealVictimLocked(w)
		if victim == nil || victim.unstarted() <= w.unstarted()+1 {
			break
		}
		var stolen *job
		for id := range victim.leases {
			if victim.running[id] {
				continue
			}
			if j, ok := s.jobs[id]; ok && !j.state.Terminal() {
				stolen = j
				break
			}
		}
		if stolen == nil {
			break
		}
		delete(victim.leases, stolen.id)
		delete(victim.running, stolen.id)
		victim.revoked = append(victim.revoked, stolen.id)
		s.clu.steals++
		s.appendEventLocked(stolen, JobEvent{Type: "progress",
			Message: fmt.Sprintf("stolen from worker %s backlog by %s", victim.id, w.id)})
		out = append(out, s.leaseToLocked(w, stolen, now, true))
		s.logf("job %s: stolen from %s backlog by %s", shortID(stolen.id), victim.id, w.id)
	}
	return out
}

// popPendingLocked returns the next dispatchable job, skipping stale
// queue entries (cancelled, dead-lettered, completed-by-zombie).
func (s *Server) popPendingLocked() *job {
	for len(s.clu.pending) > 0 {
		id := s.clu.pending[0]
		s.clu.pending = s.clu.pending[1:]
		if j, ok := s.jobs[id]; ok && j.state == StateQueued {
			return j
		}
	}
	return nil
}

// leaseToLocked records a lease and moves the job into the running
// state (steals keep it running; the accounting moved with the lease).
func (s *Server) leaseToLocked(w *worker, j *job, now time.Time, stolen bool) LeasedJob {
	w.leases[j.id] = now.Add(s.clu.leaseTTL)
	j.workerID = w.id
	if !stolen {
		s.queued--
		j.dequeued = true
		j.state = StateRunning
		j.startedAt = now
		s.running++
		s.met.observeQueueWait(now.Sub(j.queuedAt).Seconds())
		s.appendEventLocked(j, JobEvent{Type: "state", State: StateRunning})
	}
	s.appendEventLocked(j, JobEvent{Type: "progress",
		Message: fmt.Sprintf("leased to worker %s (%s)", w.id, w.name)})
	return LeasedJob{JobID: j.id, Identity: j.identity, Progress: j.spec.Progress, Attempt: j.attempts}
}

// stealVictimLocked picks the active worker (other than w) with the
// deepest unstarted backlog, deterministically tie-broken by id.
func (s *Server) stealVictimLocked(w *worker) *worker {
	var best *worker
	for _, cand := range s.clu.workers {
		if cand == w || cand.state != workerActive || cand.unstarted() == 0 {
			continue
		}
		if best == nil || cand.unstarted() > best.unstarted() ||
			(cand.unstarted() == best.unstarted() && cand.id < best.id) {
			best = cand
		}
	}
	return best
}

// takeRevokedLocked drains the worker's pending revocation list.
func takeRevokedLocked(w *worker) []string {
	out := w.revoked
	w.revoked = nil
	return out
}

// touchLocked renews a worker's liveness and every lease it holds.
func (s *Server) touchLocked(w *worker, now time.Time) {
	w.lastBeat = now
	deadline := now.Add(s.clu.leaseTTL)
	for id := range w.leases {
		w.leases[id] = deadline
	}
}

// clusterStats is the /metrics snapshot of the scheduler.
type clusterStats struct {
	enabled          bool
	active, dead     int
	leaseExpiries    int64
	requeues         int64
	steals           int64
	digestMismatches int64
}

// clusterStatsLocked snapshots the worker registry for the metrics
// scrape. Caller holds the server mutex.
func (s *Server) clusterStatsLocked() clusterStats {
	st := clusterStats{enabled: s.opts.Cluster}
	if s.clu == nil {
		return st
	}
	st.leaseExpiries = s.clu.leaseExpiries
	st.requeues = s.clu.requeues
	st.steals = s.clu.steals
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
	if s.clu == nil {
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
		leases:   make(map[string]time.Time),
		running:  make(map[string]bool),
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
			Leases: len(wk.leases), Running: len(wk.running),
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
	s.touchLocked(wk, now)
	wk.running = make(map[string]bool, len(req.Running))
	for _, id := range req.Running {
		if _, leased := wk.leases[id]; leased {
			wk.running[id] = true
		}
	}
	s.sweepLocked(now)
	resp := HeartbeatResponse{Revoked: takeRevokedLocked(wk), Draining: s.draining}
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
	if req.Max < 1 {
		req.Max = 1
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
		s.touchLocked(wk, now)
		s.sweepLocked(now)
		jobs := s.assignLocked(wk, req.Max, now)
		resp := LeaseResponse{Jobs: jobs, Revoked: takeRevokedLocked(wk), Draining: s.draining}
		wake := s.clu.wake
		s.mu.Unlock()

		if len(resp.Jobs) > 0 || len(resp.Revoked) > 0 || resp.Draining || !now.Before(deadline) {
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

	// The receipt to file is built and signed here, also outside the
	// lock, and stored below before the job turns done: a ?wait=1 caller
	// released by finishLocked may GET /receipt at once. Jobs are never
	// dropped from s.jobs and their identity never changes, so this read
	// is the job the locked section below completes.
	s.mu.Lock()
	j, ok := s.jobs[req.JobID]
	s.mu.Unlock()
	storeRcpt := ok && req.Error == "" && vErr == nil
	if storeRcpt && !hasReceipt {
		// Worker sent no receipt (older agent, or receipts disabled):
		// synthesize an unchecked one from the validated payload so
		// every completed job still serves /receipt.
		var bErr error
		rcpt, _, bErr = receipt.Build(j.identity, req.Result, nil, workerProducer(wk))
		if bErr == nil && len(s.opts.ReceiptKey) > 0 {
			rcpt = rcpt.Sign(s.opts.ReceiptKey)
		}
		storeRcpt = bErr == nil
	}

	now := time.Now()
	s.mu.Lock()
	if wk.state == workerActive {
		s.touchLocked(wk, now)
	}
	if !ok {
		s.mu.Unlock()
		s.respondError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	delete(wk.leases, req.JobID)
	delete(wk.running, req.JobID)
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
		st := j.status(false)
		s.mu.Unlock()
		s.respondJSON(w, http.StatusOK, st)
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
		s.logf("job %s: completion from worker %s rejected: %v", shortID(req.JobID), wk.id, vErr)
		s.respondError(w, http.StatusUnprocessableEntity, vErr)
		return
	}
	switch j.state {
	case StateRunning:
		s.running--
	case StateQueued:
		// A zombie finished a job that had already been requeued; accept
		// the result and pull it back off the queue accounting.
		if !j.dequeued {
			s.queued--
			j.dequeued = true
		}
	}
	j.workerID = ""
	j.finishedAt = now
	wk.completed++
	var persistErr error
	if req.Error != "" {
		j.errMsg = req.Error
		s.finishLocked(j, StateFailed)
	} else {
		j.result = append([]byte(nil), req.Result...)
		persistErr = s.store.Put(j.id, j.result)
		if storeRcpt {
			s.storeReceipt(j.id, rcpt, nil)
		}
		s.finishLocked(j, StateDone)
	}
	st := j.status(false)
	started := j.startedAt
	s.mu.Unlock()

	if req.Error != "" {
		s.logf("job %s: failed on worker %s: %s", shortID(req.JobID), wk.id, req.Error)
	} else {
		if !started.IsZero() {
			s.met.observeRunTime(now.Sub(started).Seconds())
		}
		s.logf("job %s: done on worker %s in %.1f ms", shortID(req.JobID), wk.id, msBetween(started, now))
	}
	if persistErr != nil {
		s.logf("job %s: persisting result: %v", shortID(req.JobID), persistErr)
	}
	s.respondJSON(w, http.StatusOK, st)
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
			shortID(rcpt.RunHash), shortID(req.JobID))
	}
	if got := receipt.Digest(req.Result); got != rcpt.ResultDigest {
		return rcpt, false, fmt.Errorf("result digest mismatch: receipt records %s, payload hashes to %s",
			shortID(rcpt.ResultDigest), shortID(got))
	}
	return rcpt, true, nil
}

func (s *Server) handleWorkerProgress(w http.ResponseWriter, r *http.Request) {
	if !s.clusterOnly(w) {
		return
	}
	wk := s.lookupWorker(w, r)
	if wk == nil {
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	var req ProgressRequest
	if err := dec.Decode(&req); err != nil {
		s.respondError(w, http.StatusBadRequest, fmt.Errorf("decoding progress batch: %w", err))
		return
	}
	s.mu.Lock()
	s.touchLocked(wk, time.Now())
	if j, ok := s.jobs[req.JobID]; ok && !j.state.Terminal() {
		for _, ev := range req.Events {
			s.appendEventLocked(j, JobEvent{Type: "progress", Message: ev.Message, SimCycles: ev.SimCycles})
		}
	}
	s.mu.Unlock()
	s.respondJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
		delete(wk.running, id)
		if j, ok := s.jobs[id]; ok && !j.state.Terminal() {
			// Voluntary return: requeue without burning an attempt.
			s.requeueLocked(j, fmt.Sprintf("worker %s deregistered", wk.id), false)
			returned++
		}
	}
	delete(s.clu.workers, wk.id)
	s.mu.Unlock()
	s.logf("cluster: worker %s (%s) deregistered, %d lease(s) returned", wk.id, wk.name, returned)
	s.respondJSON(w, http.StatusOK, map[string]any{"status": "ok", "returned": returned})
}
