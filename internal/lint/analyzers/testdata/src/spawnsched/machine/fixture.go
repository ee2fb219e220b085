// Fixture for the closuresched Spawn rule outside its scope: start-up
// spawns of long-lived processes, as internal/machine makes, may pass
// closure literals. Nothing here is flagged.
package machine

import "coma/internal/sim"

type node struct{}

func (n *node) run(p *sim.Process, i int) {}

func start(eng *sim.Engine, nodes []*node) {
	for i, n := range nodes {
		eng.Spawn("proc", func(p *sim.Process) { n.run(p, i) })
	}
}
