// Package sim is a deterministic discrete-event simulation kernel in the
// style of the CSIM library used by the paper's original simulator: time is
// a monotonically increasing cycle counter, callbacks fire at scheduled
// cycles, and long-running activities are written as lightweight processes
// (one goroutine each) that block on simulated time, futures, resources and
// barriers.
//
// Determinism: at most one goroutine (the engine or exactly one process)
// runs at any instant, enforced by a strict baton-passing discipline, and
// simultaneous events fire in schedule order. Two runs with the same seed
// and the same inputs produce identical event sequences.
//
// The hot paths are allocation-free: pending events live in a timing
// wheel (wheel.go) of reusable slots, process wakes and typed payload
// events (EventSink) are enum-dispatched without closures, and the
// goroutine holding the baton dispatches subsequent events itself — a
// process waking another process is one channel handoff, a process
// waking itself is none. Finished processes park their goroutines on a
// free list, so a steady-state Spawn (SpawnBody with a typed argument)
// allocates nothing either.
package sim

import (
	"errors"
	"fmt"
	"slices"
)

// Engine is the event queue and clock of one simulation. The zero value is
// not usable; call New.
type Engine struct {
	now   int64
	seq   int64
	queue eventQueue

	// nowq is the same-cycle fast path: events scheduled while running
	// for the current cycle are appended here (a FIFO, already in seq
	// order) instead of paying a queue insert. Dispatch merges nowq and
	// the queue by (time, seq), so ordering is identical to a queue-only
	// schedule. nowqHead indexes the next pending entry; the backing
	// array is reused once drained.
	nowq     []event
	nowqHead int

	// yield carries the baton back to the engine goroutine; during a run
	// it is sent exactly once, when the run is over (queue empty, Stop,
	// or the RunUntil limit). During Shutdown it signals each kill step.
	yield chan struct{}

	limit int64 // current run's RunUntil limit (-1: none)

	procs   map[*Process]struct{}
	nextPID int

	// idle is the free list of finished processes whose goroutines are
	// parked for reuse by the next Spawn (see Process.top). They are
	// not in procs; Shutdown drains them.
	idle []*Process

	running  bool
	stopped  bool
	shutdown bool

	events int64 // total events dispatched, for diagnostics

	// safePoint, when set, runs before every event dispatch, on whichever
	// goroutine holds the baton. The engine is quiescent at that instant —
	// no callback is mid-flight — so the hook may read any simulator state
	// reachable from the engine, but it must not schedule events, wake
	// processes, or mutate state: the dispatch sequence of an inspected
	// run must be identical to an uninspected one. Nil (the default) costs
	// one predictable branch per event.
	safePoint func(now int64)
}

// EventSink receives typed events scheduled with AtSink/AfterSink. The
// arg is an opaque payload chosen by the scheduler of the event (an
// index into a pending-work slab, a timer generation, ...); together
// they make recurring timers and message deliveries allocation-free
// where an At closure would allocate per event. OnEvent runs in event
// context and must not block.
type EventSink interface {
	OnEvent(e *Engine, arg int64)
}

// eventKind discriminates the event payload; see event.
type eventKind uint8

const (
	evFn    eventKind = iota // fn: arbitrary callback
	evWake                   // proc: resume a parked process
	evStart                  // proc: first dispatch of a brand-new process
	evSink                   // sink, arg: typed allocation-free payload
)

// event is one scheduled occurrence. Exactly one payload field is live,
// selected by kind; wakes, starts and sink events carry typed fields so
// the hot block/wake and message-delivery paths schedule without
// allocating a closure.
type event struct {
	time int64
	seq  int64
	kind eventKind
	fn   func()
	proc *Process
	sink EventSink
	arg  int64
}

// New returns a fresh engine with the clock at cycle zero.
func New() *Engine {
	return &Engine{
		nowq:  make([]event, 0, 64),
		yield: make(chan struct{}),
		procs: make(map[*Process]struct{}),
		limit: -1,
	}
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() int64 { return e.now }

// Events returns the number of events dispatched so far.
func (e *Engine) Events() int64 { return e.events }

// Processes returns the number of live (spawned, not yet finished)
// processes. Idle recycled goroutines are not counted.
func (e *Engine) Processes() int { return len(e.procs) }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics.
func (e *Engine) At(t int64, fn func()) {
	e.schedule(event{time: t, kind: evFn, fn: fn})
}

// AtSink schedules a typed event: at absolute time t, sink.OnEvent runs
// with the given arg. The allocation-free alternative to At for hot
// paths (see EventSink).
func (e *Engine) AtSink(t int64, sink EventSink, arg int64) {
	e.schedule(event{time: t, kind: evSink, sink: sink, arg: arg})
}

// atWake schedules the resumption of a parked process at absolute time
// t. It is the allocation-free twin of At used by every blocking
// primitive (Wait, future/resource/barrier wakes).
func (e *Engine) atWake(t int64, p *Process) {
	e.schedule(event{time: t, kind: evWake, proc: p})
}

func (e *Engine) schedule(ev event) {
	if ev.time < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", ev.time, e.now))
	}
	e.seq++
	ev.seq = e.seq
	if e.running && ev.time == e.now {
		e.nowq = append(e.nowq, ev)
		return
	}
	e.queue.push(ev)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d int64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// AfterSink schedules a typed event d cycles from now; see AtSink.
func (e *Engine) AfterSink(d int64, sink EventSink, arg int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.AtSink(e.now+d, sink, arg)
}

// Stop makes Run return after the currently dispatching event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetSafePointHook installs fn to run at every dispatch safe point —
// between events, on the baton-holding goroutine, with the engine
// quiescent. The hook must be read-only with respect to simulation
// state (see the safePoint field); it is how the live-inspection layer
// (internal/inspect) answers queries without perturbing dispatch order.
// A nil fn removes the hook. The number of safe points is a pure
// function of the event sequence, so hook invocations themselves are
// deterministic.
func (e *Engine) SetSafePointHook(fn func(now int64)) { e.safePoint = fn }

// QueueStats reports the pending-event population by residence: wheel
// (near-future slots), overflow (far-future heap), and nowq (the
// same-cycle FIFO). Read-only; safe to call from a safe-point hook.
func (e *Engine) QueueStats() (wheel, overflow, nowq int) {
	wheel, overflow = e.queue.stats()
	return wheel, overflow, len(e.nowq) - e.nowqHead
}

// ErrNested is returned by Run when called re-entrantly.
var ErrNested = errors.New("sim: Run called while already running")

// Run dispatches events in (time, schedule-order) until the queue is empty,
// Stop is called, or the optional limit is reached. It returns the time at
// which it stopped.
func (e *Engine) Run() (int64, error) { return e.RunUntil(-1) }

// RunUntil behaves like Run but additionally stops once the clock would
// advance past limit (events at exactly limit still fire). A negative limit
// means no limit.
//
// The engine goroutine dispatches callbacks until control first transfers
// to a process; from then on whichever goroutine holds the baton keeps
// dispatching (see advance), and the engine blocks until a holder finds
// the run over and hands the baton back.
func (e *Engine) RunUntil(limit int64) (int64, error) {
	if e.running {
		return e.now, ErrNested
	}
	e.running = true
	e.stopped = false
	e.limit = limit
	defer func() { e.running = false }()

	if e.advance(nil) == advHandoff {
		<-e.yield
	}
	return e.now, nil
}

// advResult says how an advance call ended.
type advResult uint8

const (
	// advOver: the run is over — queue empty, Stop called, or the limit
	// reached. The engine goroutine returns from RunUntil on it; a
	// process-side holder must hand the baton back through yield.
	advOver advResult = iota
	// advHandoff: the baton moved to another process goroutine.
	advHandoff
	// advSelf: the caller's own wake event fired (process holders only);
	// the caller resumes user code without any channel operation.
	advSelf
)

// advance dispatches due events on the calling goroutine — the current
// baton holder — until the run ends or the baton must transfer.
// Callbacks and typed sink events run inline regardless of which
// goroutine holds the baton (exactly one goroutine runs at any instant,
// so the single-threaded discipline is preserved); a wake of self
// returns control to the caller's user code directly.
func (e *Engine) advance(self *Process) advResult {
	for {
		if e.safePoint != nil {
			e.safePoint(e.now)
		}
		ev, ok := e.next()
		if !ok {
			return advOver
		}
		e.now = ev.time
		e.events++
		switch ev.kind {
		case evFn:
			ev.fn()
		case evSink:
			ev.sink.OnEvent(e, ev.arg)
		case evWake:
			if ev.proc == self {
				return advSelf
			}
			ev.proc.wake <- struct{}{}
			return advHandoff
		case evStart:
			ev.proc.started = true
			go ev.proc.top()
			return advHandoff
		}
	}
}

// next pops the next due event, merging the same-cycle FIFO with the
// timing wheel in (time, seq) order. ok is false when the run is over:
// the queue is drained, Stop was called, or the next event lies beyond
// the RunUntil limit (in which case the clock advances to the limit).
func (e *Engine) next() (event, bool) {
	if e.stopped {
		return event{}, false
	}
	if e.nowqHead < len(e.nowq) {
		nq := e.nowq[e.nowqHead]
		// A queue event at the current cycle with a smaller seq was
		// scheduled earlier and fires first. nowq entries are always due
		// at e.now, so time never advances while any are pending.
		if top := e.queue.peek(); top != nil &&
			(top.time < nq.time || (top.time == nq.time && top.seq < nq.seq)) {
			return e.queue.pop(), true
		}
		e.nowq[e.nowqHead] = event{} // release fn/proc/sink for the GC
		e.nowqHead++
		if e.nowqHead == len(e.nowq) {
			e.nowq = e.nowq[:0] // drained: reuse the backing array
			e.nowqHead = 0
		}
		return nq, true
	}
	if e.queue.len() == 0 {
		return event{}, false
	}
	if e.limit >= 0 {
		if top := e.queue.peek(); top.time > e.limit {
			e.now = e.limit
			return event{}, false
		}
	}
	ev := e.queue.pop()
	if ev.time < e.now {
		panic("sim: event queue went backwards")
	}
	return ev, true
}

// Shutdown terminates every live process (they observe a killed signal at
// their next — or current — blocking point) and drains their goroutines,
// in ascending process-id order for determinism, then ends the idle
// goroutines on the free list, so no goroutine of the engine outlives
// it. The engine must not be running. After Shutdown the engine can
// still inspect state but should not schedule further work.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown while running")
	}
	e.shutdown = true
	// Snapshot and sort once per pass instead of an O(n²) lowest-id scan;
	// the outer loop re-collects in case an unwinding process spawns or
	// reaps peers.
	for len(e.procs) > 0 {
		order := make([]*Process, 0, len(e.procs))
		for p := range e.procs {
			order = append(order, p)
		}
		slices.SortFunc(order, func(a, b *Process) int { return a.id - b.id })
		for _, p := range order {
			if _, live := e.procs[p]; !live {
				continue
			}
			if !p.started {
				// Its start never fired (Stop came first): there is no
				// goroutine to unwind.
				delete(e.procs, p)
				continue
			}
			p.killed = true
			p.wake <- struct{}{}
			<-e.yield
		}
	}
	for len(e.idle) > 0 {
		p := e.idle[len(e.idle)-1]
		e.idle = e.idle[:len(e.idle)-1]
		p.killed = true
		p.wake <- struct{}{}
		<-e.yield
	}
}

// wakeNow schedules an immediate handshake that resumes p and waits for it
// to park again or finish.
func (e *Engine) wakeNow(p *Process) {
	e.atWake(e.now, p)
}

// WakeNow resumes a process blocked in Park at the current simulated
// time. The counterpart of Process.Park for externally built primitives.
func (e *Engine) WakeNow(p *Process) { e.wakeNow(p) }

// eventHeap is a binary min-heap ordered by (time, seq); it backs the
// timing wheel's far-future overflow (wheel.go).
type eventHeap struct{ a []event }

func (h *eventHeap) len() int     { return len(h.a) }
func (h *eventHeap) peek() *event { return &h.a[0] }

func (h *eventHeap) less(i, j int) bool {
	if h.a[i].time != h.a[j].time {
		return h.a[i].time < h.a[j].time
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *eventHeap) push(ev event) {
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = event{} // release the closure
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.a) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.a) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return top
}
