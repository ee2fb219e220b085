package snoop

import (
	"fmt"
	"maps"

	"coma/internal/am"
	"coma/internal/proto"
	"coma/internal/sim"
)

// coordinator establishes periodic recovery points. On a bus the create
// phases of all nodes serialise through the single medium anyway, so the
// coordinator drives them directly: quiesce all processors, replicate
// every modified item (one bus tenure each), commit locally, snapshot,
// resume.
func (m *Machine) coordinator(p *sim.Process) {
	for {
		p.Wait(m.cfg.CheckpointInterval)
		if m.running == 0 {
			return
		}
		// Serialise with failure recovery: both drive the same quiesce
		// machinery.
		m.roundLock.Acquire(p)
		m.pause = true
		m.kickIdle()
		m.quiesce.Arrive(p) // all processors parked

		tCreate := p.Now()
		for i := range m.ams {
			m.createNode(p, proto.NodeID(i))
		}
		tCommit := p.Now()
		m.ckpt.CreateCycles += tCommit - tCreate

		// Commit scans run locally in parallel: charge the slowest.
		var worst int64
		for i := range m.ams {
			if c := m.ams[i].CommitScanCost(); c > worst {
				worst = c
			}
			m.commitNode(proto.NodeID(i))
		}
		p.Wait(worst)
		m.ckpt.CommitCycles += p.Now() - tCommit
		m.ckpt.Established++

		for _, g := range m.gens {
			g.Commit()
		}
		if m.oracle != nil {
			clear(m.committed)
			maps.Copy(m.committed, m.oracle)
		}
		if err := m.CheckRecoveryPairs(); err != nil {
			m.fail(fmt.Errorf("snoop: at commit: %w", err))
		}

		m.pause = false
		m.resume.Open(m.eng)
		m.resume.Close()
		m.roundLock.Release(m.eng)
	}
}

// createNode replicates every modified item of one node (Fig. 2 of the
// paper, on a bus: one tenure per item).
func (m *Machine) createNode(p *sim.Process, n proto.NodeID) {
	c := m.c[n]
	start := p.Now()
	for _, item := range m.ams[n].ModifiedItems(nil) {
		m.bus.Acquire(p)
		p.Wait(addrPhase)
		m.busCycles += addrPhase
		st := m.ams[n].State(item)
		reused := false
		if st == proto.MasterShared && m.cfg.FaultTolerant {
			// Replication reuse: upgrade a snooped Shared copy.
			for i := range m.ams {
				t := proto.NodeID(i)
				if t != n && m.ams[t].State(item) == proto.Shared {
					m.ams[n].SetState(item, proto.PreCommit1)
					m.ams[t].SetState(item, proto.PreCommit2)
					m.ams[t].SetPartner(item, n)
					m.ams[n].SetPartner(item, t)
					c.CkptItemsReused++
					reused = true
					break
				}
			}
		}
		if !reused {
			slot := m.ams[n].Slot(item)
			//coma:transition Exclusive|MasterShared -> PreCommit1
			m.ams[n].SetState(item, proto.PreCommit1)
			target := m.placeCopy(p, n, item, proto.PreCommit2, slot.Value, n)
			m.ams[n].SetPartner(item, target)
			c.Injections[proto.InjectCheckpoint]++
			c.CkptItemsReplicated++
			c.CkptBytesMoved += int64(m.arch.ItemSize)
		}
		m.bus.Release(m.eng)
	}
	c.CkptCreateCycles += p.Now() - start
}

func (m *Machine) commitNode(n proto.NodeID) {
	m.ams[n].ForEachAllocated(func(item proto.ItemID, s *am.Slot) {
		switch s.State {
		case proto.PreCommit1:
			s.State = proto.SharedCK1
		case proto.PreCommit2:
			s.State = proto.SharedCK2
		case proto.InvCK1, proto.InvCK2:
			s.State = proto.Invalid
			s.Partner = proto.None
		case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
			proto.SharedCK1, proto.SharedCK2:
			// Unmodified current copies and the surviving recovery point
			// pass through the commit scan untouched.
		}
	})
}

// FailTransient injects a transient failure of node f at absolute cycle
// t: the node's memory is lost, the machine rolls back to its last
// recovery point, re-pairs the recovery copies that lost their partner,
// and every generator rewinds. Call before Run.
func (m *Machine) FailTransient(t int64, f proto.NodeID) {
	m.eng.At(t, m, int64(f))
}

// OnEvent implements sim.EventSink: a scheduled failure fires, spawning
// the recovery process for the node carried in arg.
func (m *Machine) OnEvent(e *sim.Engine, arg int64) {
	f := proto.NodeID(arg)
	e.Spawn("bus-recovery", func(p *sim.Process) { m.recover(p, f) })
}

func (m *Machine) recover(p *sim.Process, f proto.NodeID) {
	m.roundLock.Acquire(p)
	m.pause = true
	m.kickIdle()
	m.quiesce.Arrive(p)

	m.ams[f].Clear()
	var worst int64
	for i := range m.ams {
		if c := m.ams[i].CommitScanCost(); c > worst {
			worst = c
		}
		m.ams[i].ForEachAllocated(func(item proto.ItemID, s *am.Slot) {
			switch s.State {
			case proto.Shared, proto.Exclusive, proto.MasterShared,
				proto.PreCommit1, proto.PreCommit2:
				s.State = proto.Invalid
				s.Partner = proto.None
			case proto.InvCK1:
				s.State = proto.SharedCK1
			case proto.InvCK2:
				s.State = proto.SharedCK2
			case proto.Invalid, proto.SharedCK1, proto.SharedCK2:
				// Free slots and the unmodified recovery point are already
				// in their rolled-back state.
			}
		})
	}
	p.Wait(worst)

	// Reconfigure: re-pair every surviving copy whose partner's memory
	// was lost (promotion first, as on the mesh).
	for i := range m.ams {
		n := proto.NodeID(i)
		type work struct {
			item    proto.ItemID
			promote bool
		}
		var todo []work
		m.ams[n].ForEachAllocated(func(item proto.ItemID, s *am.Slot) {
			if s.State == proto.SharedCK1 && s.Partner == f {
				todo = append(todo, work{item, false})
			}
			if s.State == proto.SharedCK2 && s.Partner == f {
				todo = append(todo, work{item, true})
			}
		})
		for _, w := range todo {
			m.bus.Acquire(p)
			p.Wait(addrPhase)
			if w.promote {
				//coma:transition SharedCK2 -> SharedCK1
				m.ams[n].SetState(w.item, proto.SharedCK1)
			}
			slot := m.ams[n].Slot(w.item)
			target := m.placeCopy(p, n, w.item, proto.SharedCK2, slot.Value, n)
			m.ams[n].SetPartner(w.item, target)
			m.c[n].Injections[proto.InjectReconfigure]++
			m.bus.Release(m.eng)
		}
	}

	// Rollback: oracle and generators rewind to the last recovery point.
	if m.oracle != nil {
		clear(m.oracle)
		maps.Copy(m.oracle, m.committed)
	}
	for _, g := range m.gens {
		g.Rollback()
	}
	m.ckpt.Recoveries++
	if err := m.CheckRecoveryPairs(); err != nil {
		m.fail(fmt.Errorf("snoop: after rollback: %w", err))
	}

	m.pause = false
	m.resume.Open(m.eng)
	m.resume.Close()
	m.roundLock.Release(m.eng)
}

// CheckRecoveryPairs audits the recovery pairs across every node's
// attraction memory (am.CheckPairs, the rule the mesh machine's
// invariant checker applies too).
func (m *Machine) CheckRecoveryPairs() error { return am.CheckPairs(m.ams) }
