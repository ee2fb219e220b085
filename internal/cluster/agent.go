// Package cluster implements the comad worker-node agent: the process
// (comad node) that registers with a cluster coordinator (comad serve
// -cluster), heartbeats, leases jobs, executes them on the in-process
// simulator and streams results and progress back.
//
// Fault model. The agent holds leases — job id plus deadline — renewed
// by every heartbeat and lease request. If the agent goes silent
// (crash, partition, SIGKILL) the coordinator declares it dead after
// one lease TTL and requeues its jobs on another node; because jobs are
// content-addressed run identities and every node computes
// byte-identical payloads (server.MarshalResult over a deterministic
// simulation), re-execution is always safe and a zombie's late result
// is indistinguishable from the replacement's. The agent therefore
// never needs distributed agreement: it only has to keep beating, and
// re-register (HTTP 410) when the coordinator has given up on it.
//
// Concurrency model. This package is host-side serve-layer concurrency,
// outside the simulator's no-goroutines rule (it holds a
// ConcurrencyAllowlist entry like internal/server): each leased job
// runs on its own slot goroutine with a private machine and
// seed-derived RNG streams, so OS scheduling cannot perturb simulated
// outcomes — the same determinism argument the coordinator's cache
// relies on.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"coma/internal/server"
	"coma/internal/server/client"
)

// Config configures an Agent.
type Config struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:7700").
	Coordinator string
	// Name labels the worker in coordinator listings and logs.
	Name string
	// Slots is how many simulations run concurrently (0: 1).
	Slots int
	// Prefetch is how many leases beyond Slots to hold locally so a slot
	// never idles waiting on a lease round-trip (0: 1; negative: 0).
	Prefetch int
	// Runner executes runs (nil: server.SimRunner, the real simulator).
	Runner server.Runner
	// Revision is the worker's code revision, checked at registration —
	// a coordinator refuses workers built from different code.
	Revision string
	// HeartbeatEvery overrides the coordinator's advertised heartbeat
	// period (0: use the coordinator's).
	HeartbeatEvery time.Duration
	// Logf receives operational log lines (nil: discarded).
	Logf func(format string, args ...any)

	// ReceiptKey HMAC-signs the receipt every completion carries (the
	// coordinator digest-checks it before accepting the result); must
	// match the coordinator's key when it enforces one.
	ReceiptKey []byte
}

// Agent is one worker node. Create with New, drive with Run.
type Agent struct {
	cfg  Config
	cli  *client.Client
	seed uint64 // retry-backoff jitter seed, derived from Name

	mu       sync.Mutex
	id       string                            // coordinator-assigned; reset on re-register
	queue    []server.LeasedJob                // leased, not yet started
	running  map[string]bool                   // started, not yet completed
	progress map[string][]server.ProgressEvent // unsent progress per job
	draining bool

	wake   chan struct{} // signals slot executors: queue grew or drain began
	killed chan struct{} // closed by Kill: simulate abrupt process death

	killOnce sync.Once
	wg       sync.WaitGroup // slot executors
}

// New assembles an agent. Call Run to start it.
func New(cfg Config) *Agent {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Prefetch == 0 {
		cfg.Prefetch = 1
	} else if cfg.Prefetch < 0 {
		cfg.Prefetch = 0
	}
	if cfg.Runner == nil {
		cfg.Runner = server.SimRunner
	}
	// Each worker seeds its jitter from its own name, so a fleet's
	// retries desynchronise while every run stays reproducible.
	var seed uint64
	for _, b := range []byte(cfg.Name) {
		seed = seed*131 + uint64(b) + 1
	}
	seed++ // never zero
	return &Agent{
		cfg:      cfg,
		cli:      client.NewSeeded(cfg.Coordinator, seed),
		seed:     seed,
		running:  make(map[string]bool),
		progress: make(map[string][]server.ProgressEvent),
		wake:     make(chan struct{}, 64),
		killed:   make(chan struct{}),
	}
}

// Kill simulates abrupt process death for fault-injection tests: all
// communication with the coordinator stops instantly — no heartbeats,
// no completions, no deregistration — so held leases expire and requeue
// elsewhere. In-flight simulations finish silently and their results
// are dropped on the floor. Idempotent.
func (a *Agent) Kill() {
	a.killOnce.Do(func() { close(a.killed) })
}

// Run registers with the coordinator and works until ctx is cancelled
// (graceful drain: in-flight jobs finish and complete, the unstarted
// backlog is returned by deregistration), the coordinator reports it
// has drained (every job it accepted is finished), or Kill is called
// (abrupt death: everything is abandoned). It returns nil on a clean
// drain.
func (a *Agent) Run(ctx context.Context) error {
	reg, err := a.register(ctx)
	if err != nil {
		return err
	}
	heartbeatEvery := a.cfg.HeartbeatEvery
	if heartbeatEvery <= 0 {
		heartbeatEvery = time.Duration(reg.HeartbeatMS) * time.Millisecond
	}
	if heartbeatEvery <= 0 {
		heartbeatEvery = server.DefaultHeartbeatEvery
	}
	a.logf("registered with %s as %s (%d slot(s), heartbeat %v)",
		a.cfg.Coordinator, reg.WorkerID, a.cfg.Slots, heartbeatEvery)

	// Slot executors: each runs one simulation at a time off the local
	// lease queue.
	for i := 0; i < a.cfg.Slots; i++ {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.executeLoop()
		}()
	}

	// Heartbeat loop: liveness, revocations, progress.
	hbDone := make(chan struct{})
	hbCtx, stopHB := context.WithCancel(context.Background())
	go func() {
		defer close(hbDone)
		a.heartbeatLoop(hbCtx, heartbeatEvery)
	}()

	// Lease loop (this goroutine): long-poll for work while there is
	// local capacity.
	err = a.leaseLoop(ctx)

	// Drain: stop accepting work, let executors finish what they
	// started, then tell the coordinator we are leaving so the backlog
	// requeues immediately instead of waiting out the lease TTL.
	a.mu.Lock()
	a.draining = true
	returned := len(a.queue)
	a.queue = nil
	a.mu.Unlock()
	a.broadcastWake()
	a.wg.Wait()
	stopHB()
	<-hbDone
	if a.isKilled() {
		return err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if derr := a.cli.DeregisterWorker(shutCtx, a.workerID()); derr != nil && !client.IsGone(derr) {
		a.logf("deregister: %v", derr)
	}
	a.logf("drained (%d unstarted lease(s) returned)", returned)
	return err
}

// register registers with capped-backoff retries until ctx expires. A
// revision mismatch (HTTP 409) aborts immediately: retrying cannot fix
// a wrong binary.
func (a *Agent) register(ctx context.Context) (server.RegisterResponse, error) {
	backoff := client.NewBackoff(a.seed)
	for {
		reg, err := a.cli.RegisterWorker(ctx, server.RegisterRequest{
			Name: a.cfg.Name, Slots: a.cfg.Slots, Revision: a.cfg.Revision,
		})
		if err == nil {
			a.mu.Lock()
			a.id = reg.WorkerID
			a.mu.Unlock()
			return reg, nil
		}
		if client.StatusCode(err) == http.StatusConflict {
			return reg, fmt.Errorf("cluster: coordinator refused registration: %w", err)
		}
		if ctx.Err() != nil {
			return reg, ctx.Err()
		}
		a.logf("register: %v (retrying)", err)
		if !sleepCtx(ctx, a.killed, backoff.Next(0)) {
			return reg, errors.New("cluster: agent killed during registration")
		}
	}
}

// leaseLoop long-polls the coordinator for work whenever local capacity
// (slots + prefetch minus held leases) is positive, enqueues what it
// gets, and applies revocations. Returns when ctx is cancelled, the
// agent is killed, or the coordinator reports it has drained — a
// coordinator that is still draining keeps handing out its queued
// jobs, so the agent keeps taking them.
func (a *Agent) leaseLoop(ctx context.Context) error {
	backoff := client.NewBackoff(a.seed ^ 0xc1a5)
	for {
		if ctx.Err() != nil || a.isKilled() {
			return nil
		}
		capacity := a.capacity()
		if capacity <= 0 {
			// Fully loaded: wait for a slot to free up rather than
			// holding a pointless long-poll open.
			if !sleepCtx(ctx, a.killed, 50*time.Millisecond) {
				return nil
			}
			continue
		}
		resp, err := a.cli.LeaseJobs(ctx, a.workerID(), server.LeaseRequest{
			Max:    capacity,
			WaitMS: 2000,
		})
		if err != nil {
			if ctx.Err() != nil || a.isKilled() {
				return nil
			}
			if client.IsGone(err) {
				// Coordinator declared us dead (our leases already
				// requeued); rejoin as a fresh worker.
				a.logf("lease: declared dead, re-registering")
				if _, rerr := a.register(ctx); rerr != nil {
					return rerr
				}
				backoff.Reset()
				continue
			}
			a.logf("lease: %v (retrying)", err)
			if !sleepCtx(ctx, a.killed, backoff.Next(0)) {
				return nil
			}
			continue
		}
		backoff.Reset()
		a.applyRevocations(resp.Revoked)
		if len(resp.Jobs) > 0 {
			a.mu.Lock()
			a.queue = append(a.queue, resp.Jobs...)
			a.mu.Unlock()
			for range resp.Jobs {
				a.signalWake()
			}
		}
		if resp.Draining {
			a.logf("coordinator drained, no work left")
			return nil
		}
	}
}

// heartbeatLoop renews leases and reports started jobs on a fixed
// period, carrying the progress buffered since the last beat.
func (a *Agent) heartbeatLoop(ctx context.Context, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-a.killed:
			return
		case <-ticker.C:
		}
		resp, err := a.cli.Heartbeat(ctx, a.workerID(), a.beat())
		if err != nil {
			if ctx.Err() == nil && !client.IsGone(err) {
				a.logf("heartbeat: %v", err)
			}
			// A 410 here means the coordinator gave up on us; the lease
			// loop re-registers on its next request.
			continue
		}
		a.applyRevocations(resp.Revoked)
	}
}

// executeLoop is one slot: take a leased job, simulate, complete.
func (a *Agent) executeLoop() {
	for {
		j, ok := a.take()
		if !ok {
			return
		}
		a.execute(j)
	}
}

// take blocks until a leased job is available (moving it queued →
// running) or the agent drains or dies.
func (a *Agent) take() (server.LeasedJob, bool) {
	for {
		a.mu.Lock()
		if len(a.queue) > 0 {
			j := a.queue[0]
			a.queue = a.queue[1:]
			a.running[j.JobID] = true
			a.mu.Unlock()
			return j, true
		}
		drained := a.draining
		a.mu.Unlock()
		if drained {
			return server.LeasedJob{}, false
		}
		select {
		case <-a.wake:
		case <-a.killed:
			return server.LeasedJob{}, false
		}
	}
}

// execute runs one leased job and delivers its outcome. Progress events
// are buffered under the job id and ride the next heartbeat; whatever
// is left rides the completion, which the coordinator files before the
// terminal state event.
func (a *Agent) execute(j server.LeasedJob) {
	defer func() {
		a.mu.Lock()
		delete(a.running, j.JobID)
		delete(a.progress, j.JobID)
		a.mu.Unlock()
	}()

	x := server.Execution{
		Runner:     a.cfg.Runner,
		Identity:   j.Identity,
		Producer:   a.cfg.Name,
		ReceiptKey: a.cfg.ReceiptKey,
	}
	if j.Progress {
		x.Publish = func(msg string, simCycles int64) {
			a.mu.Lock()
			a.progress[j.JobID] = append(a.progress[j.JobID],
				server.ProgressEvent{JobID: j.JobID, Message: msg, SimCycles: simCycles})
			a.mu.Unlock()
		}
	}
	out := server.Execute(x)
	if a.isKilled() {
		return // dead processes deliver nothing
	}
	// The receipt rides along with the result: the coordinator
	// recomputes the result digest against it before the payload may
	// enter the store. The trace stays here; its digest in the receipt
	// lets any holder of the trace attest it later.
	req := server.CompleteRequest{JobID: j.JobID, Result: out.Payload}
	if out.Err != nil {
		req.Error = out.Err.Error()
	}
	if out.ReceiptErr != nil {
		a.logf("receipt %s: %v (completing without one)", server.ShortID(j.JobID), out.ReceiptErr)
	}
	if out.Receipt != nil {
		req.Receipt = out.Receipt.CanonicalJSON()
	}
	a.mu.Lock()
	req.Progress = a.progress[j.JobID]
	delete(a.progress, j.JobID)
	a.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	backoff := client.NewBackoff(a.seed ^ 0x0b5)
	for {
		cerr := a.cli.CompleteJob(ctx, a.workerID(), req)
		if cerr == nil {
			return
		}
		if sc := client.StatusCode(cerr); sc >= 400 && sc < 500 || ctx.Err() != nil || a.isKilled() {
			// Unknown job (cancelled or coordinator restarted), or the
			// coordinator rejected the completion outright (digest
			// mismatch — it has already requeued the job): retrying the
			// same bytes cannot succeed.
			if sc == http.StatusUnprocessableEntity {
				a.logf("complete %s: rejected: %v", server.ShortID(j.JobID), cerr)
			}
			return
		}
		a.logf("complete %s: %v (retrying)", server.ShortID(j.JobID), cerr)
		if !sleepCtx(ctx, a.killed, backoff.Next(0)) {
			return
		}
	}
}

// applyRevocations drops revoked jobs that have not started; jobs
// already running are left alone — whoever completes first wins, the
// loser's completion is a benign duplicate.
func (a *Agent) applyRevocations(revoked []string) {
	if len(revoked) == 0 {
		return
	}
	gone := make(map[string]bool, len(revoked))
	for _, id := range revoked {
		gone[id] = true
	}
	a.mu.Lock()
	kept := a.queue[:0]
	for _, j := range a.queue {
		if !gone[j.JobID] {
			kept = append(kept, j)
		}
	}
	dropped := len(a.queue) - len(kept)
	a.queue = kept
	a.mu.Unlock()
	if dropped > 0 {
		a.logf("%d unstarted lease(s) revoked (stolen by an idle worker)", dropped)
	}
}

func (a *Agent) capacity() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.Slots + a.cfg.Prefetch - len(a.queue) - len(a.running)
}

// beat assembles a heartbeat: the started jobs and every progress event
// buffered since the last beat.
func (a *Agent) beat() server.HeartbeatRequest {
	a.mu.Lock()
	defer a.mu.Unlock()
	req := server.HeartbeatRequest{Running: make([]string, 0, len(a.running))}
	for id := range a.running {
		req.Running = append(req.Running, id)
	}
	for id, events := range a.progress {
		req.Progress = append(req.Progress, events...)
		delete(a.progress, id)
	}
	return req
}

func (a *Agent) workerID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.id
}

func (a *Agent) isKilled() bool {
	select {
	case <-a.killed:
		return true
	default:
		return false
	}
}

func (a *Agent) signalWake() {
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// broadcastWake wakes every blocked executor (used when draining).
func (a *Agent) broadcastWake() {
	for i := 0; i < a.cfg.Slots; i++ {
		a.signalWake()
	}
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf("worker %s: "+format, append([]any{a.cfg.Name}, args...)...)
	}
}

// sleepCtx sleeps d, returning false if ctx ends or kill closes first.
func sleepCtx(ctx context.Context, kill <-chan struct{}, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	case <-kill:
		return false
	}
}
