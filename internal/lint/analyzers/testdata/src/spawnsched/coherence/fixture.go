// Fixture for the closuresched Spawn rule in a package named like the
// protocol engine: every Engine.Spawn is flagged, a per-message closure
// and a long-lived body passed by name alike; a handler run on typed
// events and non-Engine Spawn methods stay silent.
package coherence

import "coma/internal/sim"

type msg struct{ dst int }

type engine struct {
	eng  *sim.Engine
	msgs []msg
}

func (e *engine) handle(p *sim.Process, m msg) {}

// dispatchClosure is the per-message closure form.
func (e *engine) dispatchClosure(m msg) {
	e.eng.Spawn("home", func(p *sim.Process) { e.handle(p, m) }) // want `Engine.Spawn starts a process`
}

// OnEvent is the event-context handler: the message waits in the slab
// and every event of its handler carries the slot index.
func (e *engine) OnEvent(_ *sim.Engine, slot int64) { _ = e.msgs[slot] }

func (e *engine) dispatchTyped(m msg) {
	e.msgs = append(e.msgs, m)
	e.eng.After(0, e, int64(len(e.msgs)-1))
}

// coordinator is a long-lived process body passed by name.
func (e *engine) coordinator(p *sim.Process) {}

func (e *engine) start() {
	e.eng.Spawn("coordinator", e.coordinator) // want `Engine.Spawn starts a process`
}

// pool is not an Engine: its Spawn is not a process spawn.
type pool struct{}

func (pool) Spawn(name string, fn func(p *sim.Process)) {}

func notEngine(p pool) {
	p.Spawn("x", func(*sim.Process) {})
}
