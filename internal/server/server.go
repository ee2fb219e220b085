// Package server implements comad, the simulation-as-a-service daemon:
// an HTTP/JSON front end that accepts simulation jobs, coalesces
// identical submissions onto one run, executes them from one bounded
// dispatch queue, and answers repeats from a content-addressed result
// store.
//
// Serving model. A job is identified by the canonical hash of its run
// identity (config.RunIdentity: architecture, protocol, workload, seed,
// failure schedule, code revision), so identity — not submission — is
// the unit of work: N clients posting the same configuration share one
// simulation (the job table is keyed by that hash), and a configuration
// that ever completed is served from the store in O(1) with
// byte-identical payloads. Accepted jobs wait in one FIFO queue with two
// kinds of consumer: up to Options.Workers in-process executors, or —
// in coordinator mode — worker nodes leasing over HTTP (cluster.go).
// Both run a job through Execute and file it through the same
// completion step. Backpressure is a bounded queue: submissions beyond
// it get 429 with Retry-After. Progress streams over SSE from an
// observability bridge; liveness and load are exposed on /healthz and
// /metrics (Prometheus text).
//
// Concurrency model. This package is host-side serve-layer concurrency,
// deliberately outside the simulator's no-goroutines rule (it holds a
// ConcurrencyAllowlist entry, like internal/experiments/runner): every
// simulation owns a private engine and seed-derived RNG streams, so
// scheduling jobs on OS threads cannot perturb any simulated outcome —
// determinism is the cache's correctness argument, asserted by the
// 32-way coalescing test in dedupe_test.go.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"coma/internal/config"
	"coma/internal/inspect"
	"coma/internal/obs/receipt"
)

// Options configures a Server.
type Options struct {
	// Workers bounds the in-process executors, and so concurrently
	// executing simulations, /trace replays included (0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet picked up by a worker
	// (0: 64). Beyond it, submissions get 429 with Retry-After.
	QueueDepth int
	// Revision is the code revision baked into every cache key, so a
	// persistent store never serves results computed by different
	// simulator code.
	Revision string
	// CacheDir, when non-empty, persists the result store to disk
	// (one file per content hash) and reloads entries on demand.
	CacheDir string
	// Runner executes runs (nil: SimRunner, the real simulator).
	Runner Runner
	// Logf receives operational log lines (nil: discarded).
	Logf func(format string, args ...any)

	// Every job gets an execution receipt: local runs stream through
	// the receipt gate, and a worker completion carries one (or gets an
	// unchecked one built from its payload). ReceiptKey, when
	// non-empty, HMAC-signs every emitted receipt and
	// requires worker-submitted receipts to verify under the same key —
	// for fleets whose transport is not trusted.
	ReceiptKey []byte

	// Cluster switches the daemon into coordinator mode: it starts no
	// in-process executors, and registered worker nodes (comad node)
	// lease jobs from the same queue over the protocol in cluster.go.
	// The job API, cache and SSE surface are unchanged — only who
	// simulates moves.
	Cluster bool
	// LeaseTTL is the worker liveness window: a worker silent for this
	// long is dead and its leases requeue (0: 15s). Cluster mode only.
	LeaseTTL time.Duration
	// HeartbeatEvery is the heartbeat period advertised to workers
	// (0: LeaseTTL/3). Cluster mode only.
	HeartbeatEvery time.Duration
	// MaxRequeues bounds how many lease expiries a job survives before
	// it is dead-lettered (0: 3; negative: dead-letter on first expiry).
	MaxRequeues int
}

// Server is the comad daemon: scheduler state plus the HTTP API.
type Server struct {
	opts   Options
	runner Runner
	store  *Store
	met    *metrics
	mux    *http.ServeMux
	clu    *clusterTable // worker registry; empty unless Options.Cluster

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	queued   int      // jobs in StateQueued (kept by setStateLocked)
	running  int      // jobs in StateRunning (kept by setStateLocked)
	draining bool

	// pending is the dispatch queue: jobs awaiting an executor or a
	// lease, FIFO, with requeued jobs pushed to the front so retried
	// work finishes first. Entries whose job left the queued state are
	// skipped lazily by popPendingLocked.
	pending []*job
	// executors counts the taken in-process executor slots: running
	// executor goroutines plus /trace replays (at most Options.Workers;
	// always 0 in coordinator mode).
	executors int
	// wake is closed and replaced whenever pending grows (or a drain
	// finishes), releasing long-polling lease handlers.
	wake chan struct{}

	// inflight counts accepted non-terminal jobs; Drain waits on it.
	// Add happens under mu with !draining, so it cannot race Wait;
	// finishLocked is the one release.
	inflight sync.WaitGroup
}

// New assembles a server.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = opts.LeaseTTL / 3
	}
	if opts.MaxRequeues == 0 {
		opts.MaxRequeues = DefaultMaxRequeues
	} else if opts.MaxRequeues < 0 {
		opts.MaxRequeues = 0
	}
	store, err := NewStore(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:   opts,
		runner: opts.Runner,
		store:  store,
		met:    newMetrics(),
		clu:    newClusterTable(opts),
		jobs:   make(map[string]*job),
		wake:   make(chan struct{}),
	}
	if s.runner == nil {
		s.runner = SimRunner
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.serveStored(KindResult))
	s.mux.HandleFunc("GET /v1/jobs/{id}/receipt", s.serveStored(KindReceipt))
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/inspect", s.handleInspect)
	s.mux.HandleFunc("GET /v1/jobs/{id}/inspect/stream", s.handleInspectStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkerList)
	s.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	s.mux.HandleFunc("POST /v1/workers/{id}/lease", s.handleWorkerLease)
	s.mux.HandleFunc("POST /v1/workers/{id}/complete", s.handleWorkerComplete)
	s.mux.HandleFunc("DELETE /v1/workers/{id}", s.handleWorkerDeregister)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the worker bound.
func (s *Server) Workers() int { return s.opts.Workers }

// Drain stops accepting new jobs and blocks until every accepted job
// has reached a terminal state (queued jobs still run — accepted work
// is never dropped) or ctx expires. Status, result and metrics
// endpoints keep serving throughout; call it before shutting the HTTP
// listener down.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	pending := s.queued + s.running
	s.wakeLocked() // lease pollers may already have nothing left to wait for
	s.mu.Unlock()
	if !already {
		s.logf("draining: %d job(s) pending, new submissions refused", pending)
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("drained: all accepted jobs terminal")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// admit resolves one submission under the scheduler lock: an existing
// job (coalesce), a stored result (hit), or a new queued job (miss).
// A non-zero httpErr refuses the submission.
func (s *Server) admit(spec JobSpec, identity config.RunIdentity, wait bool) (j *job, cache string, httpErr int, retryAfter int) {
	key := identity.Hash()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	if j, ok := s.jobs[key]; ok {
		cache = "join"
		if j.state == StateDone {
			cache = "hit"
		}
		s.registerInterestLocked(j, wait)
		return j, cache, 0, 0
	}
	if payload, ok := s.store.Get(key, KindResult); ok {
		j := newJob(key, spec, identity, now)
		j.result = payload
		s.setStateLocked(j, StateDone)
		close(j.done)
		s.jobs[key] = j
		s.order = append(s.order, key)
		return j, "hit", 0, 0
	}
	if s.draining {
		return nil, "", http.StatusServiceUnavailable, 0
	}
	if s.queued >= s.opts.QueueDepth {
		return nil, "", http.StatusTooManyRequests, 1 + s.queued/s.opts.Workers
	}

	j = newJob(key, spec, identity, now)
	if spec.DeadlineMS > 0 {
		j.deadline = now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	s.registerInterestLocked(j, wait)
	s.setStateLocked(j, StateQueued)
	s.jobs[key] = j
	s.order = append(s.order, key)
	s.inflight.Add(1)
	s.enqueueLocked(j, false)
	return j, "miss", 0, 0
}

// registerInterestLocked records who is waiting on a job: synchronous
// waiters are counted (their disconnect may abandon a queued job),
// asynchronous submissions pin it (the client intends to come back).
func (s *Server) registerInterestLocked(j *job, wait bool) {
	if wait {
		j.interest++
	} else {
		j.pinned = true
	}
}

// ---- the dispatch queue ----

// enqueueLocked puts a queued job on the dispatch queue (front for
// requeues, back for new admissions) and signals its consumers: lease
// pollers in coordinator mode, otherwise a new in-process executor if
// fewer than Options.Workers are running.
func (s *Server) enqueueLocked(j *job, front bool) {
	if front {
		s.pending = append([]*job{j}, s.pending...)
	} else {
		s.pending = append(s.pending, j)
	}
	if s.opts.Cluster {
		s.wakeLocked()
	} else {
		s.startExecutorLocked()
	}
}

// startExecutorLocked starts an in-process executor if one of the
// Options.Workers slots is free.
func (s *Server) startExecutorLocked() {
	if s.executors < s.opts.Workers {
		s.executors++
		go s.executeLoop()
	}
}

// wakeLocked releases every long-polling lease handler.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// popPendingLocked returns the next dispatchable job, skipping stale
// queue entries (cancelled, dead-lettered, completed by a zombie) and
// failing jobs whose queue deadline has passed — a deadline bounds
// queue wait, never execution.
func (s *Server) popPendingLocked(now time.Time) *job {
	for len(s.pending) > 0 {
		j := s.pending[0]
		s.pending = s.pending[1:]
		if j.state != StateQueued {
			continue
		}
		if !j.deadline.IsZero() && now.After(j.deadline) {
			j.errMsg = "deadline exceeded while queued"
			s.finishLocked(j, StateFailed)
			continue
		}
		return j
	}
	return nil
}

// startLocked moves a popped job to running, for an executor or a
// lease.
func (s *Server) startLocked(j *job, now time.Time) {
	j.startedAt = now
	s.setStateLocked(j, StateRunning)
	s.met.observeQueueWait(now.Sub(j.queuedAt).Seconds())
}

// executeLoop is one in-process executor: it runs queued jobs in FIFO
// order and exits when the queue is empty (enqueueLocked starts a new
// one when work arrives). A job is completed under the same lock hold
// that hands the executor slot back when no job is left, so a client
// that sees the job done never finds its slot still taken.
func (s *Server) executeLoop() {
	s.mu.Lock()
	for {
		now := time.Now()
		j := s.popPendingLocked(now)
		if j == nil {
			break
		}
		s.startLocked(j, now)
		s.mu.Unlock()
		out := s.runLocal(j)
		s.mu.Lock()
		s.completeLocked(j, out, time.Now(), "")
	}
	s.executors--
	s.mu.Unlock()
}

// runLocal executes one started job in-process.
func (s *Server) runLocal(j *job) Outcome {
	s.logf("job %s: running (%s/%s on %d nodes)", ShortID(j.id), j.spec.App, j.identity.Protocol, j.identity.Arch.Nodes)
	x := Execution{
		Runner:     s.runner,
		Identity:   j.identity,
		Producer:   receipt.ProducerLocal,
		ReceiptKey: s.opts.ReceiptKey,
		// Every event is counted for /metrics; SSE forwarding is only
		// wired up when the job asked for progress streaming.
		Counts: &s.met.obsEvents,
		// Every job gets a live-inspection controller: the /inspect
		// endpoints and the per-job /metrics gauges read through it, and
		// an idle controller costs one predictable branch per event.
		Inspect: func(ctl *inspect.Controller) {
			s.mu.Lock()
			j.ctl = ctl
			s.mu.Unlock()
		},
	}
	if j.spec.Progress {
		x.Publish = func(msg string, simCycles int64) {
			s.mu.Lock()
			s.appendEventLocked(j, JobEvent{Type: "progress", Message: msg, SimCycles: simCycles})
			s.mu.Unlock()
		}
	}
	out := Execute(x)
	if out.ReceiptErr != nil {
		s.logf("job %s: building receipt: %v", ShortID(j.id), out.ReceiptErr)
	}
	return out
}

// ---- state transitions ----

// setStateLocked moves a job to st, keeping the queued/running counts
// equal to the number of jobs in those states, and logs the state
// event. Every state change goes through here.
func (s *Server) setStateLocked(j *job, st State) {
	switch j.state {
	case StateQueued:
		s.queued--
	case StateRunning:
		s.running--
	}
	switch st {
	case StateQueued:
		s.queued++
	case StateRunning:
		s.running++
	}
	j.state = st
	ev := JobEvent{Type: "state", State: st}
	if st == StateFailed || st == StateDeadLetter {
		ev.Error = j.errMsg
	}
	s.appendEventLocked(j, ev)
}

// completeLocked files a finished run — from an in-process executor or
// a worker's completion — and ends its job. The result and receipt
// reach the store before the job turns done, so a ?wait=1 caller
// released by finishLocked can fetch them at once. by names the worker
// in log lines ("" for local runs). Caller holds s.mu; j must not be
// terminal.
func (s *Server) completeLocked(j *job, out Outcome, now time.Time, by string) {
	// Detach the controller: inspection targets running jobs (the
	// machine is released with it; results are served from the store).
	// Streams already attached drain through the controller's Done.
	j.ctl = nil
	j.workerID = ""
	j.finishedAt = now
	if out.Err != nil {
		j.errMsg = out.Err.Error()
		s.finishLocked(j, StateFailed)
		s.logf("job %s: failed%s: %v", ShortID(j.id), by, out.Err)
		return
	}
	j.result = out.Payload
	if err := s.store.Put(j.id, KindResult, out.Payload); err != nil {
		s.logf("job %s: persisting result: %v", ShortID(j.id), err)
	}
	if out.Receipt != nil {
		s.storeReceipt(j.id, *out.Receipt)
	}
	s.finishLocked(j, StateDone)
	if !j.startedAt.IsZero() {
		s.met.observeRunTime(now.Sub(j.startedAt).Seconds())
	}
	s.logf("job %s: done%s in %.1f ms", ShortID(j.id), by, msBetween(j.startedAt, now))
}

// storeReceipt files a receipt beside the job's result and counts it by
// verdict.
func (s *Server) storeReceipt(id string, rcpt receipt.Receipt) {
	if err := s.store.Put(id, KindReceipt, append(rcpt.CanonicalJSON(), '\n')); err != nil {
		s.logf("job %s: persisting receipt: %v", ShortID(id), err)
	}
	s.met.countReceipt(rcpt.VerdictLabel())
	s.logf("job %s: receipt %s (%s)", ShortID(id), rcpt.VerdictLabel(), ShortID(rcpt.ResultDigest))
}

// finishLocked moves a job to a terminal state: final event, done
// broadcast, terminal metrics, and the one inflight release. Caller
// holds s.mu; the job must not already be terminal.
func (s *Server) finishLocked(j *job, st State) {
	s.setStateLocked(j, st)
	close(j.done)
	s.met.countTerminal(st)
	s.inflight.Done()
	if s.drainedLocked() {
		s.wakeLocked() // lease pollers learn there is nothing left
	}
}

// drainedLocked reports a draining daemon with no job left queued or
// running: nothing more will ever be dispatched.
func (s *Server) drainedLocked() bool {
	return s.draining && s.queued+s.running == 0
}

// appendEventLocked appends to the job's event log and wakes every
// subscriber. Caller holds s.mu.
func (s *Server) appendEventLocked(j *job, ev JobEvent) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
}

// detachWaiter undoes one synchronous waiter's interest; a queued job
// nobody is pinned to or waiting for is abandoned (this is how a client
// disconnect aborts a queued job without touching running or shared
// ones).
func (s *Server) detachWaiter(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.interest--
	if j.interest <= 0 && !j.pinned && j.state == StateQueued {
		j.errMsg = "abandoned: every waiting client disconnected"
		s.finishLocked(j, StateCancelled)
		s.logf("job %s: abandoned while queued", ShortID(j.id))
	}
}

// ---- HTTP handlers ----

// decodeSpec reads one POST /v1/jobs body; unknown fields are an error.
func decodeSpec(body io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("decoding job spec: %w", err)
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wait := r.URL.Query().Get("wait") == "1" || r.URL.Query().Get("wait") == "true"
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.respondError(w, http.StatusBadRequest, err)
		return
	}
	identity, err := spec.Identity(s.opts.Revision)
	if err != nil {
		s.respondError(w, http.StatusBadRequest, err)
		return
	}

	j, cache, httpErr, retryAfter := s.admit(spec, identity, wait)
	switch httpErr {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
		s.respondError(w, httpErr, errors.New("queue full, retry later"))
		return
	case http.StatusServiceUnavailable:
		s.respondError(w, httpErr, errors.New("draining: no new jobs accepted"))
		return
	}
	s.met.countSubmission(cache)

	if wait {
		select {
		case <-j.done:
		case <-r.Context().Done():
			s.detachWaiter(j)
			return
		}
		s.mu.Lock()
		j.interest--
		st := j.status(true)
		s.mu.Unlock()
		st.Cache = cache
		s.respondJSON(w, http.StatusOK, st)
		return
	}

	s.mu.Lock()
	st := j.status(true)
	s.mu.Unlock()
	st.Cache = cache
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK
	}
	s.respondJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, key := range s.order {
		list = append(list, s.jobs[key].status(false))
	}
	queued, running := s.queued, s.running
	s.mu.Unlock()
	s.respondJSON(w, http.StatusOK, map[string]any{
		"jobs": list, "queued": queued, "running": running,
	})
}

// lookup resolves {id}; it answers 404 itself when unknown.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		s.respondError(w, http.StatusNotFound, errors.New("unknown job"))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	wait := r.URL.Query().Get("wait") == "1" || r.URL.Query().Get("wait") == "true"
	if wait {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	s.mu.Lock()
	st := j.status(true)
	s.mu.Unlock()
	s.respondJSON(w, http.StatusOK, st)
}

// serveStored returns the handler of /result and /receipt: a done job's
// stored entry of one kind (the canonical result payload, the canonical
// coma-receipt/v1 bytes), served verbatim, because both are byte-level
// contracts.
func (s *Server) serveStored(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, payload, ok := s.storedEntry(w, r, kind)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		s.met.countHTTP(http.StatusOK)
		w.Write(payload)
	}
}

// handleTrace serves the receipt-grade observability trace of a
// locally executed job as canonical JSONL — the artifact `comatrace
// attest -trace` replays against the receipt's verdict. No trace is
// kept: a run is a pure function of its identity, so the handler runs
// the job again, twice, in one of the Options.Workers executor slots
// (429 when none is free). The first pass only checks that the
// replay's receipt equals the stored one in every field but the
// signature; a mismatch or a run error answers 500 before any byte of
// trace. The second pass streams its trace into the response as the
// gate hashes it, each chunk under traceWriteTimeout, and aborts the
// response should its receipt differ, so a client never reads a whole
// trace the receipt does not cover. A coordinator runs no simulation,
// and a worker's receipt names no local run, so cluster jobs have no
// trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, stored, ok := s.storedEntry(w, r, KindReceipt)
	if !ok {
		return
	}
	want, err := receipt.Parse(stored)
	if err != nil {
		s.respondError(w, http.StatusInternalServerError, fmt.Errorf("stored receipt: %v", err))
		return
	}
	if s.opts.Cluster || want.Producer != receipt.ProducerLocal || want.TraceDigest == "" {
		s.respondError(w, http.StatusNotFound, errors.New("no trace recorded for this job"))
		return
	}
	if retryAfter, ok := s.takeSlot(); !ok {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
		s.respondError(w, http.StatusTooManyRequests, errors.New("every executor is busy, retry later"))
		return
	}
	defer s.releaseSlot()
	want.Signature = ""
	if err := s.replay(j, want, nil); err != nil {
		s.logf("job %s: trace replay: %v", ShortID(j.id), err)
		s.respondError(w, http.StatusInternalServerError, fmt.Errorf("trace replay: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.met.countHTTP(http.StatusOK)
	if err := s.replay(j, want, deadlineWriter{w, http.NewResponseController(w)}); err != nil {
		s.logf("job %s: trace replay: %v", ShortID(j.id), err)
		panic(http.ErrAbortHandler)
	}
}

// replay runs a local job again, its receipt trace going to trace when
// that is non-nil, and checks the replay's unsigned receipt against
// want.
func (s *Server) replay(j *job, want receipt.Receipt, trace io.Writer) error {
	out := Execute(Execution{Runner: s.runner, Identity: j.identity,
		Producer: receipt.ProducerLocal, Trace: trace})
	if err := errors.Join(out.Err, out.ReceiptErr); err != nil {
		return err
	}
	if !bytes.Equal(out.Receipt.CanonicalJSON(), want.CanonicalJSON()) {
		return errors.New("the replayed receipt differs from the stored one")
	}
	return nil
}

// traceWriteTimeout bounds each chunk write of a /trace body, so a
// client that stops reading fails the write and the replay hands its
// executor slot back. A var only so a test can shorten it.
var traceWriteTimeout = 10 * time.Second

// deadlineWriter writes to a response, first giving each write
// traceWriteTimeout.
type deadlineWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (d deadlineWriter) Write(p []byte) (int, error) {
	if err := d.rc.SetWriteDeadline(time.Now().Add(traceWriteTimeout)); err != nil {
		return 0, err
	}
	return d.w.Write(p)
}

// takeSlot takes one executor slot for a trace replay, or reports the
// Retry-After hint a full queue gives when none is free.
func (s *Server) takeSlot() (retryAfter int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.executors >= s.opts.Workers {
		return 1 + s.queued/s.opts.Workers, false
	}
	s.executors++
	return 0, true
}

// releaseSlot returns a replay's executor slot, handing it to a new
// executor when queued jobs were waiting for one.
func (s *Server) releaseSlot() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.executors--
	if s.queued > 0 {
		s.startExecutorLocked()
	}
}

// storedEntry returns the requested job and its stored entry of one
// kind, having answered the request itself when the job is unknown, not
// done, or has no such entry.
func (s *Server) storedEntry(w http.ResponseWriter, r *http.Request, kind string) (*job, []byte, bool) {
	j := s.lookup(w, r)
	if j == nil {
		return nil, nil, false
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state != StateDone {
		s.respondError(w, http.StatusConflict, fmt.Errorf("job is %s", state))
		return nil, nil, false
	}
	payload, ok := s.store.Get(j.id, kind)
	if !ok {
		s.respondError(w, http.StatusNotFound, fmt.Errorf("no %s recorded for this job", kind))
		return nil, nil, false
	}
	return j, payload, true
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.respondError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.met.countHTTP(http.StatusOK)

	next := 0
	for {
		s.mu.Lock()
		pending := append([]JobEvent(nil), j.events[next:]...)
		next = len(j.events)
		wake := j.wake
		terminal := j.state.Terminal()
		s.mu.Unlock()

		for _, ev := range pending {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
		}
		if len(pending) > 0 {
			flusher.Flush()
		}
		if terminal {
			return // the log is complete; the final state event is sent
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.errMsg = "cancelled by request"
		s.finishLocked(j, StateCancelled)
		st := j.status(false)
		s.mu.Unlock()
		s.logf("job %s: cancelled while queued", ShortID(j.id))
		s.respondJSON(w, http.StatusOK, st)
	case j.state == StateCancelled:
		st := j.status(false)
		s.mu.Unlock()
		s.respondJSON(w, http.StatusOK, st)
	default:
		state := j.state
		s.mu.Unlock()
		s.respondError(w, http.StatusConflict,
			fmt.Errorf("job is %s; only queued jobs can be cancelled", state))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	s.sweepLocked(now)
	draining, queued, running := s.draining, s.queued, s.running
	clu := s.clusterStatsLocked()
	s.mu.Unlock()
	s.respondJSON(w, http.StatusOK, Health{
		Status: "ok", Draining: draining,
		Queued: queued, Running: running,
		Workers: s.opts.Workers, Revision: s.opts.Revision,
		Cluster: clu.enabled, ClusterWorkers: clu.active,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	s.sweepLocked(now)
	queued, running := s.queued, s.running
	gauges := s.jobGaugesLocked(now.UnixMilli())
	clu := s.clusterStatsLocked()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.countHTTP(http.StatusOK)
	s.met.write(w, queued, running, s.store, gauges, clu)
}

func (s *Server) respondJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	s.met.countHTTP(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) respondError(w http.ResponseWriter, code int, err error) {
	s.respondJSON(w, code, map[string]string{"error": err.Error()})
}

// ShortID abbreviates a job id, receipt digest or code revision to
// its first 12 characters for log lines.
func ShortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// BuildRevision is the default code revision of every binary that keys,
// serves or checks results: the vcs revision stamped into the binary
// ("+dirty" when the worktree was modified), or "dev" outside a stamped
// build. Coordinator, workers and offline receipts built from the same
// tree therefore agree.
func BuildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "dev"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
