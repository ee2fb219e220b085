package sim

import "fmt"

// killedSignal is the panic value used to unwind a process terminated by
// Engine.Shutdown. It never escapes the process wrapper.
type killedSignal struct{}

// Process is a lightweight simulated process: a goroutine that runs only
// while it holds the engine's baton, and that blocks on simulated time
// (Wait), futures (Await), resources (Acquire) and barriers.
type Process struct {
	eng    *Engine
	id     int
	name   string
	fn     func(*Process)
	wake   chan struct{}
	killed bool
	// started is set when the first dispatch gives the process its
	// goroutine; Shutdown reaps a process that never started without a
	// handshake.
	started bool
}

// Spawn starts fn as a new process at the current simulated time. The name
// is used in diagnostics only. fn receives the Process handle it must use
// for all blocking operations.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	e.nextPID++
	p := &Process{
		eng:  e,
		id:   e.nextPID,
		name: name,
		fn:   fn,
		wake: make(chan struct{}),
	}
	e.procs[p] = struct{}{}
	e.schedule(event{time: e.now, kind: evStart, proc: p})
	return p
}

// top is the outermost frame of the process goroutine, entered holding
// the baton (the evStart dispatcher transferred it by starting this
// goroutine). It guarantees the baton moves on when fn returns, is
// killed, or panics: a finished process keeps dispatching events itself
// until the baton transfers or the run ends, and a real panic is
// re-raised after handing the baton back so the program crashes loudly
// rather than deadlocking.
func (p *Process) top() {
	e := p.eng
	crash := p.runBody()
	delete(e.procs, p)
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
	// Dying holder: keep dispatching on this goroutine until the baton
	// transfers (advHandoff, nothing more to do here) or the run is over
	// (advOver: hand the baton back to the engine blocked in RunUntil).
	// advSelf cannot happen — this process is out of the procs set and
	// can have no pending wake.
	if e.advance(nil) == advOver {
		e.yield <- struct{}{}
	}
}

// runBody runs fn and returns the value of a real panic, or nil when fn
// returned or was killed.
func (p *Process) runBody() (crash any) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedSignal); !ok {
				crash = r
			}
		}
	}()
	p.fn(p)
	return nil
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() int64 { return p.eng.now }

// Park blocks the process until another component wakes it with
// Engine.WakeNow. Every blocking primitive funnels through here, and it
// is the escape hatch for building synchronisation primitives outside
// this package (for example the coherence engine's per-item transaction
// locks); prefer Wait/Await/Acquire where they fit. As the current baton
// holder the process dispatches subsequent events itself: its own wake
// returns without touching a channel, another process's wake is a
// single direct handoff, and only the end of the run involves the
// engine goroutine.
func (p *Process) Park() {
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

// Wait blocks the process for d simulated cycles. Wait(0) yields control
// for the current cycle (other events at the same time may run).
func (p *Process) Wait(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q waiting negative %d", p.name, d))
	}
	e := p.eng
	e.atWake(e.now+d, p)
	p.Park()
}

// WaitUntil blocks the process until absolute time t (a no-op if t is not
// in the future).
func (p *Process) WaitUntil(t int64) {
	if t <= p.eng.now {
		return
	}
	p.Wait(t - p.eng.now)
}
