package inspect

import (
	"sync"
	"sync/atomic"
)

// Controller mediates between client goroutines and the simulation.
// Clients (HTTP handlers, the REPL) post queries and pause/step/resume
// requests from any goroutine; the simulation executes them at its next
// safe point by calling AtSafePoint from the engine hook, on the
// goroutine running the simulation. Because queries run between event
// dispatches and are read-only, they cannot perturb dispatch order: an
// inspected run's trace is byte-identical to an uninspected one.
//
// Concurrency discipline: the attention flag is the per-event fast path
// — one atomic load when no client work is pending, so an attached but
// idle controller costs next to nothing. All request state is guarded
// by mu; blocking a paused simulation happens on cond inside the safe
// point, which is legal precisely because the engine is quiescent there
// (wall-clock stalls never touch simulated time).
type Controller struct {
	src Source

	// attention is set by clients when work is posted and cleared by
	// the safe point once nothing is pending; AtSafePoint returns after
	// the sampling check unless it is set.
	attention atomic.Bool

	mu       sync.Mutex
	cond     *sync.Cond // wakes a paused safe point to recheck requests
	queries  []query
	pauseReq []chan struct{} // Pause callers awaiting a safe-point ack
	stepAcks []chan struct{} // Step callers awaiting budget drain
	paused   bool
	// stepBudget is the number of events the simulation may dispatch
	// while paused before parking again.
	stepBudget int64
	resumeReq  bool
	finished   bool

	// Sampling state, touched only at safe points and in Finish.
	sampleEvery int64
	nextSample  int64
	sampleSeq   int64

	latest     atomic.Pointer[Sample]
	sampleMu   sync.Mutex
	sampleWake chan struct{}

	doneCh chan struct{}
}

type query struct {
	fn   func(Source)
	done chan struct{}
}

// NewController returns a controller answering queries from src. With
// sampleEvery > 0 a Sample is published on the stream roughly every
// sampleEvery simulated cycles (at the first safe point past each
// mark). The caller must install AtSafePoint as the engine's safe-point
// hook and must call Finish once the run is over.
func NewController(src Source, sampleEvery int64) *Controller {
	c := &Controller{
		src:         src,
		sampleEvery: sampleEvery,
		sampleWake:  make(chan struct{}),
		doneCh:      make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// AtSafePoint is the engine safe-point hook: called before every event
// dispatch with the simulation quiescent. It publishes a periodic
// sample and serves any pending client requests; with no clients
// attached it costs one atomic load beyond the sampling check.
func (c *Controller) AtSafePoint(now int64) {
	if c.sampleEvery > 0 && now >= c.nextSample {
		c.takeSample(false)
		c.nextSample = now + c.sampleEvery
	}
	if !c.attention.Load() {
		return
	}
	c.serve()
}

// serve drains client requests at a safe point, blocking while paused.
func (c *Controller) serve() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queries) > 0 {
			q := c.queries[0]
			c.queries = c.queries[1:]
			q.fn(c.src)
			close(q.done)
		}
		if len(c.pauseReq) > 0 {
			// The simulation is parked right here: pause is in effect.
			c.paused = true
			for _, ack := range c.pauseReq {
				close(ack)
			}
			c.pauseReq = nil
		}
		if !c.paused {
			c.resumeReq = false
			c.attention.Store(false)
			return
		}
		if c.stepBudget > 0 {
			// Dispatch exactly one event, then return here: attention
			// stays set so the next safe point re-enters serve.
			c.stepBudget--
			return
		}
		// Budget drained: the requested events have been dispatched.
		for _, ack := range c.stepAcks {
			close(ack)
		}
		c.stepAcks = nil
		if c.resumeReq {
			c.resumeReq = false
			c.paused = false
			continue
		}
		c.cond.Wait()
	}
}

// takeSample builds and publishes a snapshot. Only called with the
// simulation quiescent (safe point or Finish).
func (c *Controller) takeSample(finished bool) {
	c.sampleSeq++
	s := &Sample{
		Seq:     c.sampleSeq,
		Summary: c.src.InspectSummary(),
		Queues:  c.src.InspectQueues(),
		Nodes:   c.src.InspectNodes(),
	}
	s.Summary.Finished = finished
	c.latest.Store(s)
	c.sampleMu.Lock()
	close(c.sampleWake)
	c.sampleWake = make(chan struct{})
	c.sampleMu.Unlock()
}

// Pause suspends the simulation at its next safe point and returns once
// it is actually parked (or the run finishes first — a finished run is
// quiescent, which is all pause promises).
func (c *Controller) Pause() {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	ack := make(chan struct{})
	c.pauseReq = append(c.pauseReq, ack)
	c.attention.Store(true)
	c.cond.Signal()
	c.mu.Unlock()
	select {
	case <-ack:
	case <-c.doneCh:
	}
}

// Step lets a paused simulation dispatch n more events and returns once
// they have been dispatched (or the run finishes first). Step on a
// running simulation pauses it first.
func (c *Controller) Step(n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.paused = true
	c.stepBudget += n
	ack := make(chan struct{})
	c.stepAcks = append(c.stepAcks, ack)
	c.attention.Store(true)
	c.cond.Signal()
	c.mu.Unlock()
	select {
	case <-ack:
	case <-c.doneCh:
	}
}

// Resume releases a paused simulation. A no-op when not paused.
func (c *Controller) Resume() {
	c.mu.Lock()
	if c.paused || len(c.pauseReq) > 0 {
		c.resumeReq = true
		c.attention.Store(true)
		c.cond.Signal()
	}
	c.mu.Unlock()
}

// Query runs fn against the simulator state at the next safe point and
// returns once it has run. fn must be read-only and must not call back
// into the Controller. After the run has finished, fn runs inline: the
// machine is permanently quiescent, so concurrent read-only access is
// safe.
func (c *Controller) Query(fn func(Source)) {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		fn(c.src)
		return
	}
	q := query{fn: fn, done: make(chan struct{})}
	c.queries = append(c.queries, q)
	c.attention.Store(true)
	c.cond.Signal()
	c.mu.Unlock()
	<-q.done
}

// Finish marks the run complete: pending queries run against the final
// quiescent state, pause/step waiters are released, a final sample is
// published, and Done is closed. Must be called (once) after the
// engine's run returns; the simulation must not dispatch afterwards.
func (c *Controller) Finish() {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.finished = true
	c.paused = false
	c.stepBudget = 0
	c.resumeReq = false
	queries := c.queries
	c.queries = nil
	acks := append(c.pauseReq, c.stepAcks...)
	c.pauseReq, c.stepAcks = nil, nil
	for _, q := range queries {
		q.fn(c.src)
		close(q.done)
	}
	for _, ack := range acks {
		close(ack)
	}
	c.takeSample(true)
	c.attention.Store(false)
	close(c.doneCh)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Latest returns the most recent published sample, or nil before the
// first. The sample is immutable.
func (c *Controller) Latest() *Sample { return c.latest.Load() }

// Wake returns a channel closed when a sample newer than the current
// one is published. The replay-then-follow pattern: fetch Wake, then
// Latest, emit if new, then select on the channel — a sample landing
// between the two calls closes the already-fetched channel, so none is
// ever missed for long.
func (c *Controller) Wake() <-chan struct{} {
	c.sampleMu.Lock()
	ch := c.sampleWake
	c.sampleMu.Unlock()
	return ch
}

// Done returns a channel closed when Finish is called.
func (c *Controller) Done() <-chan struct{} { return c.doneCh }

// Finished reports whether Finish has been called.
func (c *Controller) Finished() bool {
	select {
	case <-c.doneCh:
		return true
	default:
		return false
	}
}
