package sim

import (
	"fmt"
	"iter"
)

// killedSignal is the panic value used to unwind a process terminated by
// Engine.Shutdown. It never escapes the process body.
type killedSignal struct{}

// Process is a lightweight simulated process: a coroutine that runs only
// while the engine's dispatch loop has resumed it, and that blocks on
// simulated time (Wait), futures (Await), resources (Acquire) and
// barriers.
type Process struct {
	eng  *Engine
	id   int
	name string
	fn   func(*Process)
	// next resumes the process until it parks or ends; stop kills it.
	// yield, valid while the body runs, hands control back to next's
	// caller and reports false once stop was called.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Spawn starts fn as a new process at the current simulated time. The name
// is used in diagnostics only. fn receives the Process handle it must use
// for all blocking operations.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	e.nextPID++
	p := &Process{eng: e, id: e.nextPID, name: name, fn: fn}
	p.next, p.stop = iter.Pull(p.body)
	e.procs[p] = struct{}{}
	e.atWake(e.now, p)
	return p
}

// body is the coroutine of the process. It leaves the live set however
// fn ends; a killed unwind ends quietly, and a real panic is re-raised
// with the process name, for iter.Pull to carry to the caller of Run.
func (p *Process) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		delete(p.eng.procs, p)
		if r := recover(); r != nil {
			if _, killed := r.(killedSignal); !killed {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
	}()
	p.fn(p)
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
// locks); prefer Wait/Await/Acquire where they fit. The process yields
// to the engine's dispatch loop, which resumes it when its wake fires.
func (p *Process) Park() {
	if !p.yield(struct{}{}) {
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
