// Package sim is a deterministic discrete-event simulation kernel in the
// style of the CSIM library used by the paper's original simulator: time is
// a monotonically increasing cycle counter, typed events (an EventSink and
// an int64 argument) fire at scheduled cycles, and long-running activities
// are written as lightweight processes (iter.Pull coroutines) that block on
// simulated time, futures, resources and barriers.
//
// Determinism: one loop in RunUntil dispatches every event on the caller's
// goroutine. A process runs only while that loop has resumed it, and
// yields back when it blocks, so the simulation is single-threaded, and
// simultaneous events fire in schedule order. Two runs with the same seed
// and the same inputs produce identical event sequences.
//
// The hot paths are allocation-free: pending events live in one pool
// linked into the slots of a timing wheel (wheel.go), and every event is
// one kind, a sink and its argument, with no closure. A process is its
// own sink: its start or wake is an event whose OnEvent resumes it. Work
// that never blocks for long (a controller serving one message) needs no
// process at all: it queues on a Resource with a sink (AcquireSink) and
// runs in event context.
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

	limit int64 // current run's RunUntil limit (-1: none)

	procs   map[*Process]struct{}
	nextPID int

	running bool
	stopped bool

	events int64 // total events dispatched, for diagnostics

	// safePoint, when set, runs before every event dispatch, on the
	// goroutine running the engine. The engine is quiescent at that instant —
	// no event is mid-flight — so the hook may read any simulator state
	// reachable from the engine, but it must not schedule events, wake
	// processes, or mutate state: the dispatch sequence of an inspected
	// run must be identical to an uninspected one. Nil (the default) costs
	// one predictable branch per event.
	safePoint func(now int64)
}

// EventSink receives the events scheduled with At/After. The arg is an
// opaque payload chosen by the scheduler of the event (an index into a
// pending-work slab, a timer generation, ...); together they make
// recurring timers and message deliveries allocation-free. A *Process
// is a sink too: its event resumes it. OnEvent runs in event context
// and must not block.
type EventSink interface {
	OnEvent(e *Engine, arg int64)
}

// event is one scheduled occurrence: at time, sink.OnEvent(arg). next
// links a wheel-resident event to the one after it in its slot
// (wheel.go).
type event struct {
	time int64
	seq  int64
	next int32
	sink EventSink
	arg  int64
}

// New returns a fresh engine with the clock at cycle zero.
func New() *Engine {
	return &Engine{
		procs: make(map[*Process]struct{}),
		limit: -1,
	}
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() int64 { return e.now }

// Events returns the number of events dispatched so far.
func (e *Engine) Events() int64 { return e.events }

// Processes returns the number of live (spawned, not yet finished)
// processes.
func (e *Engine) Processes() int { return len(e.procs) }

// At schedules an event: at absolute time t, sink.OnEvent runs with the
// given arg. Scheduling in the past is a programming error and panics.
func (e *Engine) At(t int64, sink EventSink, arg int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.queue.push(event{time: t, seq: e.seq, sink: sink, arg: arg})
}

// After schedules an event d cycles from now; see At.
func (e *Engine) After(d int64, sink EventSink, arg int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, sink, arg)
}

// Stop makes Run return after the currently dispatching event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetSafePointHook installs fn to run at every dispatch safe point —
// between events, on the goroutine running the engine, with the engine
// quiescent. The hook must be read-only with respect to simulation
// state (see the safePoint field); it is how the live-inspection layer
// (internal/inspect) answers queries without perturbing dispatch order.
// A nil fn removes the hook. The number of safe points is a pure
// function of the event sequence, so hook invocations themselves are
// deterministic.
func (e *Engine) SetSafePointHook(fn func(now int64)) { e.safePoint = fn }

// QueueStats reports the pending-event population by residence: wheel
// (near-future slots, the current cycle's included) and overflow
// (far-future heap). Read-only; safe to call from a safe-point hook.
func (e *Engine) QueueStats() (wheel, overflow int) {
	return e.queue.count, e.queue.overflow.len()
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
// Every event is dispatched by the loop below, on the caller's goroutine:
// a sink runs inline, and a process, as its own sink, runs until it
// blocks again or ends. A panic in a process body reaches
// the caller as "sim: process %q panicked: ..."; the run is then over
// and the engine is left for Shutdown.
func (e *Engine) RunUntil(limit int64) (int64, error) {
	if e.running {
		return e.now, ErrNested
	}
	e.running = true
	e.stopped = false
	e.limit = limit
	defer func() { e.running = false }()

	for {
		if e.safePoint != nil {
			e.safePoint(e.now)
		}
		ev, ok := e.next()
		if !ok {
			return e.now, nil
		}
		e.now = ev.time
		e.events++
		ev.sink.OnEvent(e, ev.arg)
	}
}

// next pops the next due event. ok is false when the run is over: the
// queue is drained, Stop was called, or the next event lies beyond the
// RunUntil limit (in which case the clock advances to the limit).
func (e *Engine) next() (event, bool) {
	if e.stopped || e.queue.len() == 0 {
		return event{}, false
	}
	if e.limit >= 0 && e.queue.peek().time > e.limit {
		e.now = e.limit
		return event{}, false
	}
	ev := e.queue.pop()
	if ev.time < e.now {
		panic("sim: event queue went backwards")
	}
	return ev, true
}

// Shutdown terminates every live process in ascending process-id order,
// for determinism: each observes a killed signal at its current blocking
// point (or never starts, if its first wake has not fired) and unwinds
// through its deferred calls. No coroutine of the engine outlives it. The
// engine must not be running. After Shutdown the engine can still inspect
// state but should not schedule further work.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown while running")
	}
	// Snapshot and sort once per pass instead of an O(n²) lowest-id scan;
	// the outer loop re-collects in case an unwinding process spawns
	// peers.
	for len(e.procs) > 0 {
		order := make([]*Process, 0, len(e.procs))
		for p := range e.procs {
			order = append(order, p)
		}
		slices.SortFunc(order, func(a, b *Process) int { return a.id - b.id })
		for _, p := range order {
			p.stop()
			delete(e.procs, p)
		}
	}
}

// WakeNow resumes a process blocked in Park at the current simulated
// time. Every primitive that wakes a process goes through here.
func (e *Engine) WakeNow(p *Process) { e.At(e.now, p, 0) }

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
	h.a[last] = event{} // release the sink for the GC
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
