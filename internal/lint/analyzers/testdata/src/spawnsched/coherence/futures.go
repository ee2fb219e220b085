package coherence

import "coma/internal/sim"

// Fixture for the closuresched NewFuture rule: a reply future allocated
// per request is flagged; the pooled form and a package-local function
// named NewFuture stay silent.

type reply struct{ kind int }

func (e *engine) requestFresh(p *sim.Process) reply {
	fut := sim.NewFuture[reply]() // want `sim.NewFuture allocates a future per request`
	return fut.Await(p)
}

func (e *engine) ackFresh() *sim.Future[int] {
	return sim.NewFuture[int]() // want `sim.NewFuture allocates a future per request`
}

func (e *engine) requestPooled(p *sim.Process, pool *sim.FuturePool[reply]) reply {
	fut := pool.Get()
	r := fut.Await(p)
	pool.Put(fut)
	return r
}

// NewFuture here is this package's own function, not the kernel's.
func NewFuture() int { return 0 }

func local() int { return NewFuture() }
