// Fixture for the closuresched Spawn rule in a package named like the
// protocol engine: a handler process spawned per delivered message
// through an Engine.Spawn literal is flagged; the slab-and-SpawnBody
// form, named function values and non-Engine Spawn methods stay silent.
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
	e.eng.Spawn("home", func(p *sim.Process) { e.handle(p, m) }) // want `closure literal spawned via Engine.Spawn allocates per message`
}

// body is the prebuilt handler: the message parks in the slab and the
// process gets its slot index.
type body struct{ e *engine }

func (b body) Run(p *sim.Process, slot int64) { b.e.handle(p, b.e.msgs[slot]) }

func (e *engine) dispatchTyped(m msg) {
	e.msgs = append(e.msgs, m)
	e.eng.SpawnBody("home", body{e}, int64(len(e.msgs)-1))
}

// coordinator is a long-lived process body passed by name.
func (e *engine) coordinator(p *sim.Process) {}

func (e *engine) start() {
	e.eng.Spawn("coordinator", e.coordinator)
}

// pool is not an Engine: its Spawn is not a process spawn.
type pool struct{}

func (pool) Spawn(name string, fn func(p *sim.Process)) {}

func notEngine(p pool) {
	p.Spawn("x", func(*sim.Process) {})
}
