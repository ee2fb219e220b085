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
	e.At(e.now, p, 0)
	return p
}

// OnEvent makes a process its own EventSink: its start or wake event
// resumes it until it blocks again or ends.
func (p *Process) OnEvent(*Engine, int64) { p.next() }

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
	p.eng.At(p.eng.now+d, p, 0)
	p.Park()
}
