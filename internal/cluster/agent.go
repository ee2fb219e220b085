// Package cluster implements the comad worker-node agent: the process
// (comad node) that registers with a cluster coordinator (comad serve
// -cluster), heartbeats, leases jobs, executes them on the in-process
// simulator and streams results and progress back.
//
// Fault model. The agent holds leases — job ids the coordinator files
// under the agent — kept alive by every heartbeat and lease request. If the agent goes silent
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
// ConcurrencyAllowlist entry like internal/server): each slot goroutine
// leases one job, runs it on a private machine with seed-derived RNG
// streams and completes it before it asks for the next. The worker
// thus holds no work it has not started, and OS scheduling cannot
// perturb simulated outcomes — the same determinism argument the
// coordinator's cache relies on.
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
	// Slots is how many simulations run concurrently (0: 1). Each slot
	// leases one job at a time, so the worker never holds work it has
	// not started.
	Slots int
	// Runner executes runs (nil: server.SimRunner, the real simulator).
	Runner server.Runner
	// Revision is the worker's code revision, checked at registration —
	// a coordinator refuses workers built from different code.
	Revision string
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

	regMu sync.Mutex // serialises re-registration across slots

	mu       sync.Mutex
	id       string                            // coordinator-assigned; reset on re-register
	progress map[string][]server.ProgressEvent // unsent progress per job

	killed   chan struct{} // closed by Kill: simulate abrupt process death
	killOnce sync.Once
}

// New assembles an agent. Call Run to start it.
func New(cfg Config) *Agent {
	if cfg.Slots < 1 {
		cfg.Slots = 1
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
		progress: make(map[string][]server.ProgressEvent),
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
// (graceful drain: in-flight jobs finish and complete, then the worker
// deregisters), the coordinator reports it has drained (every job it
// accepted is finished), or Kill is called (abrupt death: everything is
// abandoned). It returns nil on a clean drain.
func (a *Agent) Run(ctx context.Context) error {
	reg, err := a.register(ctx)
	if err != nil {
		return err
	}
	heartbeatEvery := time.Duration(reg.HeartbeatMS) * time.Millisecond
	if heartbeatEvery <= 0 {
		// The period comes off the network, and time.NewTicker panics
		// on a non-positive one.
		heartbeatEvery = server.DefaultHeartbeatEvery
	}
	a.logf("registered with %s as %s (%d slot(s), heartbeat %v)",
		a.cfg.Coordinator, reg.WorkerID, a.cfg.Slots, heartbeatEvery)

	// Heartbeat loop: liveness, lease renewal, progress.
	hbDone := make(chan struct{})
	hbCtx, stopHB := context.WithCancel(context.Background())
	go func() {
		defer close(hbDone)
		a.heartbeatLoop(hbCtx, heartbeatEvery)
	}()

	// Slots: each leases, runs and completes one job at a time. A slot
	// that learns the coordinator has drained, or cannot rejoin it,
	// stops the others.
	slotCtx, stopSlots := context.WithCancel(ctx)
	defer stopSlots()
	errs := make([]error, a.cfg.Slots)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = a.work(slotCtx, i)
			stopSlots()
		}()
	}
	wg.Wait()
	stopHB()
	<-hbDone
	err = errors.Join(errs...)
	if a.isKilled() {
		return err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if derr := a.cli.DeregisterWorker(shutCtx, a.workerID()); derr != nil && !client.IsGone(derr) {
		a.logf("deregister: %v", derr)
	}
	a.logf("drained")
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

// reregister rejoins after the coordinator answered 410 to stale, the
// worker id the caller used. Slots that see the same 410 at once
// register one new worker between them: the first re-registers, the
// rest find the id already replaced.
func (a *Agent) reregister(ctx context.Context, stale string) error {
	a.regMu.Lock()
	defer a.regMu.Unlock()
	if a.workerID() != stale {
		return nil
	}
	a.logf("declared dead, re-registering")
	_, err := a.register(ctx)
	return err
}

// work is one slot: long-poll the coordinator for one job, run it,
// complete it, repeat. It returns when ctx is cancelled, the agent is
// killed, or a lease or completion reports that the coordinator has
// drained — a coordinator that is still draining keeps handing out its
// queued jobs, so the slot keeps taking them.
func (a *Agent) work(ctx context.Context, slot int) error {
	backoff := client.NewBackoff((a.seed ^ 0xc1a5) + uint64(slot))
	for {
		if ctx.Err() != nil || a.isKilled() {
			return nil
		}
		id := a.workerID()
		resp, err := a.cli.LeaseJob(ctx, id, server.LeaseRequest{WaitMS: 2000})
		if err != nil {
			if ctx.Err() != nil || a.isKilled() {
				return nil
			}
			if client.IsGone(err) {
				// The coordinator declared us dead and requeued our
				// leases; rejoin as a fresh worker.
				if rerr := a.reregister(ctx, id); rerr != nil {
					if ctx.Err() != nil {
						return nil
					}
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
		if resp.Job != nil && a.execute(*resp.Job) || resp.Draining {
			a.logf("coordinator drained, no work left")
			return nil
		}
	}
}

// heartbeatLoop renews leases on a fixed period, carrying the progress
// buffered since the last beat.
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
		// A 410 means the coordinator gave up on us; the next lease
		// request re-registers.
		if _, err := a.cli.Heartbeat(ctx, a.workerID(), a.beat()); err != nil &&
			ctx.Err() == nil && !client.IsGone(err) {
			a.logf("heartbeat: %v", err)
		}
	}
}

// execute runs one leased job and delivers its outcome. Progress events
// are buffered under the job id and ride the next heartbeat; whatever
// is left rides the completion, which the coordinator files before the
// terminal state event. It reports whether the completion's answer says
// the coordinator has drained.
func (a *Agent) execute(j server.LeasedJob) (drained bool) {
	defer func() {
		a.mu.Lock()
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
		return false // dead processes deliver nothing
	}
	// The receipt rides along with the result: the coordinator
	// recomputes the result digest against it before the payload may
	// enter the store. The worker keeps no trace: the gate hashed it as
	// it streamed, so the receipt's digest lets any holder of the same
	// trace attest it later.
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
		ack, cerr := a.cli.CompleteJob(ctx, a.workerID(), req)
		if cerr == nil {
			return ack.Draining
		}
		if sc := client.StatusCode(cerr); sc >= 400 && sc < 500 || ctx.Err() != nil || a.isKilled() {
			// Unknown job (cancelled or coordinator restarted), or the
			// coordinator rejected the completion outright (digest
			// mismatch — it has already requeued the job): retrying the
			// same bytes cannot succeed.
			if sc == http.StatusUnprocessableEntity {
				a.logf("complete %s: rejected: %v", server.ShortID(j.JobID), cerr)
			}
			return false
		}
		a.logf("complete %s: %v (retrying)", server.ShortID(j.JobID), cerr)
		if !sleepCtx(ctx, a.killed, backoff.Next(0)) {
			return false
		}
	}
}

// beat assembles a heartbeat: every progress event buffered since the
// last beat.
func (a *Agent) beat() server.HeartbeatRequest {
	a.mu.Lock()
	defer a.mu.Unlock()
	var req server.HeartbeatRequest
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
