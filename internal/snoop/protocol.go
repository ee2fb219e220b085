package snoop

import (
	"fmt"

	"coma/internal/am"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
)

// read satisfies a processor load at the AM level. On a miss the whole
// coherence transaction happens in one bus tenure: the address/snoop
// phase identifies the supplier (every AM snoops), a data phase moves the
// item, and any injection the local slot needs happens inside the same
// tenure.
func (m *Machine) read(p *sim.Process, n proto.NodeID, item proto.ItemID) {
	c := m.c[n]
	c.AMReads++
	p.Wait(m.arch.AMAccess)
	if slot := m.ams[n].Slot(item); slot.State.Readable() {
		c.FillsLocal++
		if slot.State == proto.SharedCK1 || slot.State == proto.SharedCK2 {
			c.SharedCKReads++
		}
		m.verify(n, item, slot.Value)
		return
	}
	c.AMReadMisses++

	busStart := p.Now()
	m.bus.Acquire(p)
	var txn proto.TxnID
	if m.obs != nil {
		txn = m.mintTxn(n)
		m.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnBegin, Node: n, Item: item,
			Txn: txn, A: obs.TxnRead, B: p.Now() - busStart})
	}
	p.Wait(addrPhase)
	m.busCycles += addrPhase

	// Table 1: only a local Inv-CK copy is injected away by a read miss.
	// (Shared-CK copies are readable and never miss; pre-commit copies
	// cannot be snooped while the bus is quiesced. The guard is written
	// out explicitly rather than as st.Recovery(), which is broader than
	// the paper allows.)
	if st := m.ams[n].State(item); st == proto.InvCK1 || st == proto.InvCK2 {
		m.inject(p, n, item, proto.InjectReadInvCK, txn)
	}
	m.ensureFrame(p, n, item, txn)

	if supplier, slot := m.findSupplier(item); supplier != proto.None {
		// All state changes happen at the snoop instant — a fast-path
		// write (which needs no bus) could otherwise slip between the
		// snoop and a later mutation. The data phase is pure timing.
		if slot.State == proto.Exclusive {
			//coma:transition Exclusive -> MasterShared
			m.ams[supplier].SetState(item, proto.MasterShared)
		}
		//coma:transition Invalid -> Shared
		m.ams[n].Set(item, am.Slot{State: proto.Shared, Value: slot.Value, Partner: proto.None})
		c.FillsRemote++
		m.verify(n, item, slot.Value)
		p.Wait(dataPhase)
		m.busCycles += dataPhase
		m.bus.Release(m.eng)
		p.Wait(m.arch.AMAccess)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnEnd, Node: n, Item: item,
				Txn: txn, A: obs.FillRemote, B: p.Now() - busStart})
		}
		return
	}
	// Never written anywhere: initialised-background zero copy.
	//coma:transition Invalid -> Shared
	m.ams[n].Set(item, am.Slot{State: proto.Shared, Value: 0, Partner: proto.None})
	c.FillsCold++
	m.verify(n, item, 0)
	m.bus.Release(m.eng)
	p.Wait(m.arch.AMAccess)
	if m.obs != nil {
		m.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnEnd, Node: n, Item: item,
			Txn: txn, A: obs.FillCold, B: p.Now() - busStart})
	}
}

// write obtains exclusivity in one bus tenure: the snoop phase
// invalidates every current copy (downgrading a committed Shared-CK pair
// to Inv-CK under the ECP), a data phase moves the item if a supplier
// exists, and the new value is installed.
func (m *Machine) write(p *sim.Process, n proto.NodeID, item proto.ItemID, value uint64) {
	c := m.c[n]
	c.AMWrites++
	p.Wait(m.arch.AMAccess)
	if m.ams[n].State(item) == proto.Exclusive {
		m.ams[n].Set(item, am.Slot{State: proto.Exclusive, Value: value, Partner: proto.None})
		m.record(item, value)
		return
	}
	c.AMWriteMisses++

	busStart := p.Now()
	m.bus.Acquire(p)
	var txn proto.TxnID
	if m.obs != nil {
		txn = m.mintTxn(n)
		m.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnBegin, Node: n, Item: item,
			Txn: txn, A: obs.TxnWrite, B: p.Now() - busStart})
	}
	p.Wait(addrPhase)
	m.busCycles += addrPhase

	switch st := m.ams[n].State(item); {
	case st == proto.InvCK1 || st == proto.InvCK2:
		m.inject(p, n, item, proto.InjectWriteInvCK, txn)
	case st == proto.SharedCK1 || st == proto.SharedCK2:
		m.inject(p, n, item, proto.InjectWriteSharedCK, txn)
	}
	m.ensureFrame(p, n, item, txn)

	// Snoop responses: every state change happens at this instant (the
	// data transfer afterwards is pure timing).
	supplied := false
	for i := range m.ams {
		t := proto.NodeID(i)
		if t == n {
			continue
		}
		switch m.ams[t].State(item) {
		case proto.Shared:
			m.ams[t].SetState(item, proto.Invalid)
			m.c[t].InvalidationsIn++
		case proto.MasterShared, proto.Exclusive:
			supplied = true
			m.ams[t].SetState(item, proto.Invalid)
			m.c[t].InvalidationsIn++
		case proto.SharedCK1:
			// The pair is kept for recovery, exactly as on the mesh.
			supplied = true
			m.ams[t].SetState(item, proto.InvCK1)
			m.c[t].InvalidationsIn++
		case proto.SharedCK2:
			m.ams[t].SetState(item, proto.InvCK2)
			m.c[t].InvalidationsIn++
		case proto.Invalid, proto.InvCK1, proto.InvCK2:
			// No current copy to invalidate; Inv-CK pairs stay put for a
			// possible rollback.
		case proto.PreCommit1, proto.PreCommit2:
			// Unreachable: the bus quiesces processors for the whole
			// establishment, so no write snoops transient copies.
			panic(fmt.Sprintf("snoop: write to item %d snooped a %v copy on node %v",
				item, m.ams[t].State(item), t))
		}
	}
	// The local slot was freed above (CK copies injected earlier; a local
	// Shared or Master-Shared copy is simply overwritten by the upgrade).
	//coma:transition Invalid|Shared|MasterShared -> Exclusive
	m.ams[n].Set(item, am.Slot{State: proto.Exclusive, Value: value, Partner: proto.None})
	m.record(item, value)
	if supplied {
		p.Wait(dataPhase)
		m.busCycles += dataPhase
	}
	m.bus.Release(m.eng)
	p.Wait(m.arch.AMAccess)
	if m.obs != nil {
		src := obs.FillCold
		if supplied {
			src = obs.FillRemote
		}
		m.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnEnd, Node: n, Item: item,
			Txn: txn, A: src, B: p.Now() - busStart})
	}
}

// findSupplier returns the node that answers a read miss: the owner copy
// if one exists, otherwise any readable copy.
func (m *Machine) findSupplier(item proto.ItemID) (proto.NodeID, am.Slot) {
	fallback := proto.None
	var fbSlot am.Slot
	for i := range m.ams {
		slot := m.ams[i].Slot(item)
		if slot.State.Owner() && slot.State.Readable() {
			return proto.NodeID(i), slot
		}
		if fallback == proto.None && slot.State.Readable() {
			fallback, fbSlot = proto.NodeID(i), slot
		}
	}
	return fallback, fbSlot
}

// ensureFrame allocates the local page frame, reserving the anchor
// frames on first global touch and evicting (with injections) when the
// set is full — all within the current bus tenure.
func (m *Machine) ensureFrame(p *sim.Process, n proto.NodeID, item proto.ItemID, txn proto.TxnID) {
	page := m.arch.PageOf(item)
	if !m.anchors[page] {
		m.anchors[page] = true
		count := m.arch.AnchorFrames
		if !m.cfg.FaultTolerant {
			count = 1
		}
		a := n
		for k := 0; k < count && k < m.arch.Nodes; k++ {
			m.anchorFrame(p, a, page, txn)
			a = proto.NodeID((int(a) + 1) % m.arch.Nodes)
		}
	}
	if m.ams[n].HasFrame(page) {
		m.ams[n].Touch(page, p.Now())
		return
	}
	if !m.ams[n].FreeWay(page) {
		m.evict(p, n, page, txn)
	}
	m.ams[n].AllocFrame(page, false, p.Now())
}

func (m *Machine) anchorFrame(p *sim.Process, a proto.NodeID, page proto.PageID, txn proto.TxnID) {
	if m.ams[a].HasFrame(page) {
		m.ams[a].MarkIrreplaceable(page)
		return
	}
	if !m.ams[a].FreeWay(page) {
		m.evict(p, a, page, txn)
	}
	m.ams[a].AllocFrame(page, true, p.Now())
}

// evict frees a way by injecting the victim frame's pinned items.
func (m *Machine) evict(p *sim.Process, n proto.NodeID, page proto.PageID, par proto.TxnID) {
	victim, ok := m.ams[n].VictimPage(page)
	if !ok {
		panic(fmt.Sprintf("snoop: node %v cannot evict for page %d", n, page))
	}
	for _, it := range m.ams[n].PinnedItems(victim) {
		var cause proto.InjectCause
		switch st := m.ams[n].State(it); st {
		case proto.Exclusive, proto.MasterShared:
			cause = proto.InjectReplaceMaster
		case proto.SharedCK1, proto.SharedCK2:
			cause = proto.InjectReplaceSharedCK
		case proto.InvCK1, proto.InvCK2:
			cause = proto.InjectReplaceInvCK
		case proto.Invalid, proto.Shared:
			continue // replaceable copies are simply dropped with the frame
		case proto.PreCommit1, proto.PreCommit2:
			// Dropping a transient pre-commit copy would corrupt the
			// recovery point being established; evictions cannot run
			// while the bus is quiesced for an establishment.
			panic(fmt.Sprintf("snoop: evicting item %d in transient %v", it, st))
		}
		m.inject(p, n, it, cause, par)
	}
	first := m.arch.FirstItem(victim)
	for i := 0; i < m.arch.ItemsPerPage(); i++ {
		it := first + proto.ItemID(i)
		if m.ams[n].State(it) == proto.Shared {
			m.ams[n].SetState(it, proto.Invalid)
		}
	}
	m.ams[n].DropFrame(victim)
}

// inject moves the local copy of item to another AM inside the current
// bus tenure: the snoop phase already arbitrated, so acceptance is a
// simple scan in ring order, and the move costs one data phase. par is
// the transaction that forced the injection; the injection itself is
// traced as a child transaction parented to it.
func (m *Machine) inject(p *sim.Process, n proto.NodeID, item proto.ItemID,
	cause proto.InjectCause, par proto.TxnID) proto.NodeID {

	src := m.ams[n].Slot(item)
	if src.State.Replaceable() {
		panic(fmt.Sprintf("snoop: injecting item %d from %v in %v", item, n, src.State))
	}
	m.c[n].Injections[cause]++
	start := p.Now()
	var txn proto.TxnID
	if m.obs != nil {
		txn = m.mintTxn(n)
		m.obs.Emit(obs.Event{Time: start, Kind: obs.KTxnBegin, Node: n, Item: item,
			Txn: txn, Par: par, A: obs.TxnInject})
	}
	target := m.placeCopy(p, n, item, src.State, src.Value, src.Partner)
	if src.State.Recovery() && src.Partner != proto.None && src.Partner != target {
		m.ams[src.Partner].SetPartner(item, target)
	}
	m.ams[n].SetState(item, proto.Invalid)
	m.ams[n].SetPartner(item, proto.None)
	if m.obs != nil {
		m.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnEnd, Node: n, Item: item,
			Txn: txn, A: int64(target), B: p.Now() - start})
	}
	return target
}

// placeCopy installs a copy of the item on some other node (ring order),
// charging one data phase. Used by injections, create-phase replication
// and reconfiguration.
func (m *Machine) placeCopy(p *sim.Process, n proto.NodeID, item proto.ItemID,
	st proto.State, value uint64, partner proto.NodeID) proto.NodeID {

	page := m.arch.PageOf(item)
	for k := 1; k < m.arch.Nodes; k++ {
		t := proto.NodeID((int(n) + k) % m.arch.Nodes)
		amt := m.ams[t]
		switch {
		case amt.HasFrame(page):
			if !amt.State(item).Replaceable() {
				continue
			}
		case amt.FreeWay(page):
			amt.AllocFrame(page, false, p.Now())
		default:
			continue
		}
		// Install at the decision instant; the transfer is timing. The
		// victim slot passed the Replaceable test (or is a fresh frame);
		// the incoming state is whatever a mover or creator hands us.
		//coma:transition Invalid|Shared -> Exclusive|MasterShared|SharedCK1|SharedCK2|InvCK1|InvCK2|PreCommit2
		amt.Set(item, am.Slot{State: st, Value: value, Partner: partner})
		p.Wait(dataPhase)
		m.busCycles += dataPhase
		return t
	}
	panic(fmt.Sprintf("snoop: no room for a copy of item %d from %v", item, n))
}

// record notes a completed store in the oracle.
func (m *Machine) record(item proto.ItemID, value uint64) {
	if m.oracle != nil {
		m.oracle[item] = value
	}
}

// verify checks a delivered value against the oracle.
func (m *Machine) verify(n proto.NodeID, item proto.ItemID, value uint64) {
	if m.oracle == nil {
		return
	}
	if want := m.oracle[item]; want != value {
		m.fail(fmt.Errorf("snoop: node %v read %#x from item %d, oracle says %#x", n, value, item, want))
	}
}
