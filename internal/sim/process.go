package sim

import "fmt"

// killedSignal is the panic value used to unwind a process terminated by
// Engine.Shutdown. It never escapes the process wrapper.
type killedSignal struct{}

// Process is a lightweight simulated process: a goroutine that runs only
// while it holds the engine's baton, and that blocks on simulated time
// (Wait), futures (Await), resources (Acquire) and barriers.
//
// A handle is valid until its body returns. The engine then recycles
// the Process and its goroutine for a later Spawn, so a finished
// process must not be woken or otherwise referenced.
type Process struct {
	eng    *Engine
	id     int
	name   string
	body   Body
	arg    int64
	wake   chan struct{}
	killed bool
	// started is set when the first dispatch gives the process its
	// goroutine; Shutdown reaps a process that never started without a
	// handshake.
	started bool
}

// Body is a process body taking a typed argument, the process twin of
// EventSink: a long-lived Body value plus an int64 payload (an index
// into a pending-work slab, for example) spawns a process without
// allocating a closure per spawn.
type Body interface {
	Run(p *Process, arg int64)
}

// funcBody adapts a closure to Body; a func value is pointer-shaped, so
// the conversion does not allocate.
type funcBody func(p *Process)

func (f funcBody) Run(p *Process, _ int64) { f(p) }

// Spawn starts fn as a new process at the current simulated time. The name
// is used in diagnostics only. fn receives the Process handle it must use
// for all blocking operations.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	return e.SpawnBody(name, funcBody(fn), 0)
}

// SpawnBody starts body.Run(p, arg) as a new process at the current
// simulated time; see Spawn. Every process gets the next process id,
// but its Process and goroutine come from the engine's free list of
// finished processes when one is idle, so a spawn in steady state
// allocates nothing. The first dispatch of a recycled process is a
// plain wake of its parked goroutine; only a brand-new process starts
// a goroutine.
func (e *Engine) SpawnBody(name string, body Body, arg int64) *Process {
	e.nextPID++
	kind := evWake
	var p *Process
	if n := len(e.idle); n > 0 {
		p = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		p = &Process{eng: e, wake: make(chan struct{})}
		kind = evStart
	}
	p.id = e.nextPID
	p.name = name
	p.body = body
	p.arg = arg
	e.procs[p] = struct{}{}
	e.schedule(event{time: e.now, kind: kind, proc: p})
	return p
}

// top is the outermost frame of the process goroutine, entered holding
// the baton (the evStart dispatcher transferred it by starting this
// goroutine). Each pass of its loop runs one process body. It
// guarantees the baton moves on when the body returns, is killed, or
// panics: a finished process keeps dispatching events itself until the
// baton transfers or the run ends, and a real panic is re-raised after
// handing the baton back so the program crashes loudly rather than
// deadlocking. Killed and panicking processes end their goroutine; a
// finished one parks it on the engine's free list for the next Spawn.
func (p *Process) top() {
	e := p.eng
	for {
		crash := p.runBody()
		delete(e.procs, p)
		p.body = nil // release the body's captures for the GC
		if crash != nil {
			// Re-panic on this goroutine: the process misbehaved and the
			// whole simulation is undefined. Yield first so the engine
			// goroutine is not left blocked when the runtime unwinds.
			e.yield <- struct{}{}
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, crash))
		}
		if e.shutdown {
			// Killed unwind: Shutdown's engine loop owns sequencing.
			e.yield <- struct{}{}
			return
		}
		e.idle = append(e.idle, p)
		// Dying holder: keep dispatching on this goroutine until the
		// baton transfers (advHandoff) or the run is over (advOver: hand
		// the baton back to the engine blocked in RunUntil). advSelf
		// means a callback dispatched here spawned a process that reused
		// this very goroutine and its start came up next: run the new
		// body at once, with no channel operation.
		switch e.advance(p) {
		case advSelf:
			continue
		case advOver:
			e.yield <- struct{}{}
		}
		<-p.wake
		if p.killed {
			// Shutdown: the idle drain, or the kill of a recycled
			// process whose start never fired.
			delete(e.procs, p)
			e.yield <- struct{}{}
			return
		}
	}
}

// runBody runs the current body and returns the value of a real panic,
// or nil when the body returned or was killed.
func (p *Process) runBody() (crash any) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedSignal); !ok {
				crash = r
			}
		}
	}()
	p.body.Run(p, p.arg)
	return nil
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() int64 { return p.eng.now }

// park blocks until something wakes this process. Every blocking
// primitive funnels through here. As the current baton holder the
// process dispatches subsequent events itself: its own wake returns
// without touching a channel, another process's wake is a single direct
// handoff, and only the end of the run involves the engine goroutine.
func (p *Process) park() {
	e := p.eng
	if e.running {
		switch e.advance(p) {
		case advSelf:
			return
		case advOver:
			// Hand the baton back to the engine blocked in RunUntil,
			// then stay parked for a later run.
			e.yield <- struct{}{}
		}
	} else {
		// Outside a run (a killed process unwinding through Shutdown):
		// hand control back to the engine's kill loop.
		e.yield <- struct{}{}
	}
	<-p.wake
	if p.killed {
		panic(killedSignal{})
	}
}

// Park blocks the process until another component wakes it with
// Engine.WakeNow. It is the escape hatch for building synchronisation
// primitives outside this package (for example the coherence engine's
// per-item transaction locks); prefer Wait/Await/Acquire where they fit.
func (p *Process) Park() { p.park() }

// Wait blocks the process for d simulated cycles. Wait(0) yields control
// for the current cycle (other events at the same time may run).
func (p *Process) Wait(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q waiting negative %d", p.name, d))
	}
	e := p.eng
	e.atWake(e.now+d, p)
	p.park()
}

// WaitUntil blocks the process until absolute time t (a no-op if t is not
// in the future).
func (p *Process) WaitUntil(t int64) {
	if t <= p.eng.now {
		return
	}
	p.Wait(t - p.eng.now)
}
