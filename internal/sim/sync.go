package sim

import "fmt"

// Future is a one-shot completion carrying a value of type T. Processes
// Await it; any number may wait; Complete wakes them all at the current
// simulated time. Completing twice is a programming error.
type Future[T any] struct {
	done bool
	val  T
	// waiter is the first process blocked in Await and more the later
	// ones, in arrival order. Holding the first inline keeps the common
	// single-waiter Await allocation-free.
	waiter *Process
	more   []*Process
}

// NewFuture returns an incomplete future.
func NewFuture[T any]() *Future[T] { return &Future[T]{} }

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Complete resolves the future with v and wakes all waiters.
func (f *Future[T]) Complete(e *Engine, v T) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = v
	if f.waiter != nil {
		e.WakeNow(f.waiter)
		f.waiter = nil
	}
	for _, p := range f.more {
		e.WakeNow(p)
	}
	f.more = nil
}

// Await blocks p until the future completes and returns its value.
func (f *Future[T]) Await(p *Process) T {
	if f.done {
		return f.val
	}
	if f.waiter == nil {
		f.waiter = p
	} else {
		f.more = append(f.more, p)
	}
	p.Park()
	if !f.done {
		panic("sim: process woken before future completion")
	}
	return f.val
}

// Reset returns a completed future to the incomplete state so it can
// carry another value. It panics if the future is still pending, with
// or without waiters: a pending future may yet be completed by whoever
// holds it (an in-flight message, say), and reusing it would hand that
// value to the wrong waiter.
func (f *Future[T]) Reset() {
	if !f.done {
		panic("sim: Reset of a pending future")
	}
	var zero T
	f.done = false
	f.val = zero
}

// FuturePool is a free list of futures for request/reply traffic whose
// volume scales with simulated work. The zero value is ready to use.
//
// Ownership: the process that Gets a future owns it until it Puts it
// back, and may Put it only once the future has completed and the
// process has read its value; Put panics otherwise (see Reset). Every
// other holder — a message carrying it as a reply token — must be done
// with it by the time it completes.
type FuturePool[T any] struct {
	free []*Future[T]
	out  int
}

// Get returns an incomplete future, reusing a returned one if any.
func (fp *FuturePool[T]) Get() *Future[T] {
	fp.out++
	if n := len(fp.free); n > 0 {
		f := fp.free[n-1]
		fp.free[n-1] = nil
		fp.free = fp.free[:n-1]
		return f
	}
	return &Future[T]{}
}

// Put resets a completed future and returns it to the pool.
func (fp *FuturePool[T]) Put(f *Future[T]) {
	f.Reset()
	fp.out--
	fp.free = append(fp.free, f)
}

// Outstanding returns the number of futures handed out by Get and not
// yet returned with Put.
func (fp *FuturePool[T]) Outstanding() int { return fp.out }

// Resource is a multi-server FIFO resource (for example the four
// independent AM controllers of a node, or a network interface). Acquire
// blocks a process when all servers are busy; AcquireSink queues a sink
// instead, for work that runs in event context. A blocked process is
// queued as its own sink, so every waiter is a sink in one FIFO, and
// Release hands the server to the longest waiting one.
type Resource struct {
	name     string
	capacity int
	inUse    int
	waiters  []waiter

	// Busy-time accounting for utilisation statistics.
	busyCycles int64
	lastChange int64
}

// waiter is one queued acquirer: the sink and arg of an AcquireSink, or
// a process blocked in Acquire.
type waiter struct {
	sink EventSink
	arg  int64
}

// NewResource returns a resource with the given number of servers.
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{name: name, capacity: capacity}
}

// Acquire blocks p until a server is free, then claims it.
// The releasing side transfers the server to it (inUse unchanged).
func (r *Resource) Acquire(p *Process) {
	if !r.AcquireSink(p.eng, p, 0) {
		p.Park()
	}
}

// AcquireSink is the event-context form of Acquire. It claims a free
// server and returns true, as Acquire would without blocking. Otherwise
// it queues (sink, arg) behind the current waiters and returns false;
// the Release that hands the server over then schedules
// sink.OnEvent(arg) at its own time, and the server is held from that
// event on.
func (r *Resource) AcquireSink(e *Engine, sink EventSink, arg int64) bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.account(e)
		r.inUse++
		return true
	}
	r.waiters = append(r.waiters, waiter{sink: sink, arg: arg})
	return false
}

// Release frees one server, handing it directly to the longest waiter if
// any. It panics if the resource is not held.
func (r *Resource) Release(e *Engine) {
	if r.inUse == 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if len(r.waiters) > 0 {
		// The server stays in use, transferred to the next waiter.
		next := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = waiter{} // release the sink for the GC
		r.waiters = r.waiters[:len(r.waiters)-1]
		e.At(e.now, next.sink, next.arg)
		return
	}
	r.account(e)
	r.inUse--
}

// Use is the common acquire-hold-release pattern: claim a server, hold it
// for d cycles of service, release it.
func (r *Resource) Use(p *Process, d int64) {
	r.Acquire(p)
	p.Wait(d)
	r.Release(p.eng)
}

// InUse returns the number of busy servers.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of queued acquirers.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// BusyCycles returns the integral of busy servers over time, in
// server-cycles, up to the current engine time.
func (r *Resource) BusyCycles(e *Engine) int64 {
	return r.busyCycles + int64(r.inUse)*(e.now-r.lastChange)
}

func (r *Resource) account(e *Engine) {
	r.busyCycles += int64(r.inUse) * (e.now - r.lastChange)
	r.lastChange = e.now
}

// Barrier synchronises a fixed group of processes: each calls Arrive and
// blocks until all n have arrived, then all resume and the barrier resets
// for the next round.
type Barrier struct {
	n       int
	arrived int
	waiters []*Process
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	return &Barrier{n: n}
}

// Arrive blocks p until all participants have arrived. It returns true for
// the participant that completed the round (the last arriver).
func (b *Barrier) Arrive(p *Process) bool {
	b.arrived++
	if b.arrived >= b.n {
		b.open(p.eng)
		return true
	}
	b.waiters = append(b.waiters, p)
	p.Park()
	return false
}

func (b *Barrier) open(e *Engine) {
	for _, w := range b.waiters {
		e.WakeNow(w)
	}
	b.waiters = nil
	b.arrived = 0
}

// Gate is a broadcast condition: processes Wait on it; Open wakes them all.
// Unlike a Future it can be reused (Close re-arms it).
type Gate struct {
	open    bool
	waiters []*Process
}

// NewGate returns a closed gate.
func NewGate() *Gate { return &Gate{} }

// Open releases all waiting processes and lets subsequent Wait calls pass
// through immediately. The waiter list keeps its array for the next
// round: WakeNow only schedules a waiter, so none re-enters Wait while
// the list is walked.
func (g *Gate) Open(e *Engine) {
	g.open = true
	for _, w := range g.waiters {
		e.WakeNow(w)
	}
	clear(g.waiters)
	g.waiters = g.waiters[:0]
}

// Close re-arms the gate.
func (g *Gate) Close() { g.open = false }

// Wait blocks p until the gate is open.
func (g *Gate) Wait(p *Process) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, p)
	p.Park()
}
