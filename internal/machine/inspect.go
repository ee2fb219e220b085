package machine

import (
	"coma/internal/am"
	"coma/internal/inspect"
	"coma/internal/mesh"
	"coma/internal/proto"
)

// The Machine is the inspect.Source of its own simulation: every view
// is assembled from engine, AM, directory, mesh and coordinator
// accessors that are read-only by construction. These methods are only
// called while the simulation is quiescent — at an engine safe point on
// the engine goroutine, or after Run has returned — which is why none of
// them take locks.

// NewInspector attaches a live-inspection controller to the machine's
// engine and returns it. With sampleEvery > 0 the controller publishes
// a stream sample roughly every sampleEvery simulated cycles. Call
// before Run; the caller must call Finish on the controller once Run
// returns (success or failure) so blocked clients are released.
func (m *Machine) NewInspector(sampleEvery int64) *inspect.Controller {
	ctl := inspect.NewController(m, sampleEvery)
	m.eng.SetSafePointHook(ctl.AtSafePoint)
	return ctl
}

// InspectLine implements inspect.Source: the directory's view of one
// item plus every AM copy, including recovery-pair placement.
func (m *Machine) InspectLine(item proto.ItemID) inspect.LineView {
	v := inspect.LineView{
		Item:          int64(item),
		Page:          int64(m.cfg.Arch.PageOf(item)),
		Home:          int(m.dir.Home(item)),
		Owner:         -1,
		Sharers:       []int{},
		Copies:        []inspect.CopyView{},
		RecoveryPairs: [][2]int{},
	}
	if e, ok := m.dir.Lookup(item); ok {
		v.Present = true
		if o := e.Owner(); o != proto.None {
			v.Owner = int(o)
		}
		e.Sharers.ForEach(func(n proto.NodeID) {
			v.Sharers = append(v.Sharers, int(n))
		})
	}
	page := m.cfg.Arch.PageOf(item)
	for n, a := range m.ams {
		if !a.HasFrame(page) {
			continue
		}
		slot := a.Slot(item)
		if slot.State == proto.Invalid {
			continue
		}
		cv := inspect.CopyView{
			Node:    n,
			State:   slot.State.String(),
			Partner: -1,
			Value:   slot.Value,
		}
		if slot.State.Recovery() && slot.Partner != proto.None {
			cv.Partner = int(slot.Partner)
			// Record each pair once, lower node id first.
			lo, hi := n, int(slot.Partner)
			if hi < lo {
				lo, hi = hi, lo
			}
			if lo == n {
				v.RecoveryPairs = append(v.RecoveryPairs, [2]int{lo, hi})
			}
		}
		v.Copies = append(v.Copies, cv)
	}
	return v
}

// InspectNodes implements inspect.Source: per-node liveness, frame
// usage, and the ECP state histogram over every item of every allocated
// frame, never-written items counted as Invalid.
func (m *Machine) InspectNodes() []inspect.NodeView {
	out := make([]inspect.NodeView, len(m.ams))
	for n, a := range m.ams {
		nv := inspect.NodeView{
			Node:   n,
			Alive:  m.co.Alive(proto.NodeID(n)),
			Frames: a.AllocatedFrames(),
		}
		a.ForEachAllocated(func(_ proto.ItemID, slot *am.Slot) {
			nv.States.Add(slot.State)
		})
		// The scan visits written items only; every other item of an
		// allocated frame holds no copy.
		nv.States[proto.Invalid] += int64(nv.Frames*m.cfg.Arch.ItemsPerPage()) - nv.States.Total()
		out[n] = nv
	}
	return out
}

// InspectQueues implements inspect.Source: mesh occupancy per subnet.
func (m *Machine) InspectQueues() inspect.QueuesView {
	now := m.eng.Now()
	return inspect.QueuesView{
		SimCycles: now,
		Request:   m.subnetView(mesh.RequestNet, now),
		Reply:     m.subnetView(mesh.ReplyNet, now),
	}
}

func (m *Machine) subnetView(s mesh.Subnet, now int64) inspect.SubnetView {
	v := inspect.SubnetView{
		Inflight:   m.net.Inflight(s),
		BusyLinks:  m.net.BusyLinks(s, now),
		NISendBusy: make([]int64, len(m.ams)),
		NIRecvBusy: make([]int64, len(m.ams)),
	}
	for n := range m.ams {
		v.NISendBusy[n], v.NIRecvBusy[n] = m.net.NIBacklog(s, proto.NodeID(n), now)
	}
	return v
}

// InspectSummary implements inspect.Source: scheduler occupancy plus
// the coordinator's checkpoint/recovery phase.
func (m *Machine) InspectSummary() inspect.SummaryView {
	wheel, overflow := m.eng.QueueStats()
	ps := m.co.Snapshot()
	ck := m.co.Stats()
	return inspect.SummaryView{
		SimCycles:      m.eng.Now(),
		Events:         m.eng.Events(),
		Processes:      m.eng.Processes(),
		WheelEvents:    wheel,
		OverflowEvents: overflow,
		Nodes:          len(m.ams),
		LiveNodes:      ps.LiveNodes,
		DirectoryItems: m.dir.Items(),
		LockedItems:    m.coh.LockedItems(),
		Phase: inspect.PhaseView{
			Round:           ps.Round,
			Recovery:        ps.Recovery,
			PauseRequested:  ps.PauseRequested,
			QuiesceGot:      ps.QuiesceGot,
			QuiesceNeed:     ps.QuiesceNeed,
			Phase1Got:       ps.Phase1Got,
			Phase1Need:      ps.Phase1Need,
			Phase2Got:       ps.Phase2Got,
			Phase2Need:      ps.Phase2Need,
			Established:     ck.Established,
			Aborted:         ck.Aborted,
			Skipped:         ck.Skipped,
			Recoveries:      ck.Recoveries,
			PendingFailures: ps.PendingFailures,
		},
	}
}
