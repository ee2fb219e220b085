package coherence

import (
	"fmt"

	"coma/internal/am"
	"coma/internal/mesh"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
)

// inject moves (replace=true) or copies (replace=false) the node's copy of
// an item into another attraction memory, using the paper's two-step
// injection along the logical ring: probe a neighbour for a victim slot,
// then transfer the item; the receiver acknowledges five cycles after
// reception. The caller must hold the item lock. It returns the node that
// accepted the copy.
//
// replace=false is the create-phase replication ("similar to item
// injections, the only difference being that the injected item copy is
// not replaced in the memory of the node performing the injection").
//
// par is the transaction that forced the injection (the access or
// coordinator round); the injection itself is traced as a child
// transaction parented to it.
func (e *Engine) inject(p *sim.Process, n proto.NodeID, item proto.ItemID,
	replace bool, cause proto.InjectCause, par proto.TxnID) proto.NodeID {

	src := e.ams[n].Slot(item)
	if src.State.Replaceable() {
		panic(fmt.Sprintf("coherence: injecting item %d from %v in replaceable state %v",
			item, n, src.State))
	}
	injState := src.State
	if !replace {
		// Replication for a recovery point: the new copy is the
		// secondary pre-commit copy.
		injState = proto.PreCommit2
		if cause == proto.InjectReconfigure {
			injState = proto.SharedCK2
		}
	}

	c := e.counters[n]
	c.Injections[cause]++
	if cause == proto.InjectCheckpoint || cause == proto.InjectReconfigure {
		c.CkptBytesMoved += int64(e.arch.ItemSize)
	}

	start := p.Now()
	var txn proto.TxnID
	if e.obs != nil {
		txn = e.mintTxn(n)
		e.obs.Emit(obs.Event{Time: start, Kind: obs.KTxnBegin, Node: n, Item: item,
			Txn: txn, Par: par, A: obs.TxnInject})
	}

	// Ring walk: first lap accepts only free slots; second lap also
	// allows dropping a clean victim frame at the target.
	alive := e.dir.AliveCount()
	target := proto.None
	hops := int64(0)
	t := e.dir.NextAlive(n)
	for step := 0; step < 2*alive; step++ {
		if t == n {
			t = e.dir.NextAlive(t)
			continue
		}
		lap := int64(0)
		if step >= alive {
			lap = 1
		}
		c.InjectProbes++
		if e.obs != nil {
			e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KInjectProbe, Node: n, Item: item,
				Cause: cause, Txn: txn, A: int64(t), B: lap})
		}
		reply := e.request(p, mesh.Message{
			Kind:      proto.MsgInjectProbe,
			Src:       n,
			Dst:       t,
			Item:      item,
			State:     injState,
			Value:     src.Value,
			Arg:       lap,
			Fresh:     !replace,
			Requester: n,
			Txn:       txn,
		})
		if reply.Kind == proto.MsgInjectAccept {
			target = t
			break
		}
		c.InjectHops++
		hops++
		t = e.dir.NextAlive(t)
	}
	if target == proto.None {
		panic(fmt.Sprintf("coherence: injection of item %d from %v found no room after two laps",
			item, n))
	}

	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KInjectAccept, Node: n, Item: item,
			Cause: cause, Txn: txn, A: int64(target), B: hops})
	}

	// Step two: the data transfer and its acknowledgement. The probe
	// handler already performed the state installation at the target
	// (under our item lock); these messages carry the timing.
	e.request(p, mesh.Message{
		Kind:      proto.MsgInjectData,
		Src:       n,
		Dst:       target,
		Item:      item,
		State:     injState,
		Value:     src.Value,
		Requester: n,
		Txn:       txn,
	})

	// Recovery-pair partner bookkeeping.
	if injState.Recovery() {
		if replace {
			// The copy moved: its partner must learn the new location.
			if src.Partner != proto.None && src.Partner != target {
				e.ams[src.Partner].SetPartner(item, target)
				e.net.Send(mesh.Message{Kind: proto.MsgPartnerUpdate, Src: n, Dst: src.Partner, Item: item, Txn: txn})
			}
		} else {
			// A fresh secondary copy: pair it with the source.
			e.ams[n].SetPartner(item, target)
		}
	}

	// Ownership follows owner-state copies.
	if injState.Owner() && replace {
		e.dir.Ensure(item).SetOwner(target)
		if h := e.dir.Home(item); h != n && h != target {
			e.net.Send(mesh.Message{Kind: proto.MsgHomeUpdate, Src: n, Dst: h, Item: item, Txn: txn})
		}
	}

	if replace {
		e.ams[n].SetState(item, proto.Invalid)
		e.cacheOps.InvalidateItem(n, item)
	}
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnEnd, Node: n, Item: item,
			Txn: txn, A: int64(target), B: p.Now() - start})
	}
	return target
}

// handleInjectProbe decides whether this node can accept an injected copy
// and, if so, installs it immediately (the initiator holds the item lock,
// so the early installation is invisible to other transactions; the data
// message that follows carries the transfer timing).
func (e *Engine) handleInjectProbe(n proto.NodeID, m mesh.Message) {
	kind := proto.MsgInjectRefuse
	if e.tryAcceptInjection(n, m) {
		kind = proto.MsgInjectAccept
	}
	e.net.Send(mesh.Message{
		Kind:  kind,
		Src:   n,
		Dst:   m.Requester,
		Item:  m.Item,
		Reply: m.Token,
		Txn:   m.Txn,
	})
}

// tryAcceptInjection applies the paper's acceptance rule: a node may
// replace one of its Invalid or Shared slots for the item. A frame is
// used if present; otherwise a free way is allocated; on the second ring
// lap a fully replaceable victim frame may be dropped to make room.
func (e *Engine) tryAcceptInjection(n proto.NodeID, m mesh.Message) bool {
	item := m.Item
	page := e.arch.PageOf(item)
	amn := e.ams[n]
	switch {
	case amn.HasFrame(page):
		if amn.Evicting(page) {
			return false // the frame is being replaced right now
		}
		if !amn.State(item).Replaceable() {
			return false // the slot holds a master or recovery copy
		}
	case amn.FreeWay(page):
		amn.AllocFrame(page, false, e.eng.Now())
	case m.Arg >= 1: // second lap: drop a clean, idle frame if one exists
		victim := proto.NoPage
		for _, cand := range amn.VictimPages(page) {
			if len(amn.PinnedItems(cand)) == 0 && !e.installPending(n, cand) {
				victim = cand
				break
			}
		}
		if victim == proto.NoPage {
			return false
		}
		e.dropCleanFrame(n, victim)
		amn.AllocFrame(page, false, e.eng.Now())
	default:
		return false
	}

	// If we held a Shared copy it is being overwritten: leave the
	// sharing set.
	if amn.State(item) == proto.Shared {
		if entry, ok := e.dir.Lookup(item); ok {
			entry.Sharers.Remove(n)
		}
		e.cacheOps.InvalidateItem(n, item)
	}

	partner := proto.None
	if m.State.Recovery() {
		if m.Fresh {
			partner = m.Requester // a fresh secondary pairs with the source
		} else {
			partner = e.ams[m.Requester].Slot(item).Partner // a moving copy keeps its partner
		}
	}
	// The victim slot passed the Replaceable test (or sits in a fresh
	// frame); the incoming state is whatever a mover or creator sends.
	//coma:transition Invalid|Shared -> Exclusive|MasterShared|SharedCK1|SharedCK2|InvCK1|InvCK2|PreCommit2
	amn.Set(item, am.Slot{State: m.State, Value: m.Value, Partner: partner})
	return true
}

// dropCleanFrame silently drops a frame whose items are all Invalid or
// Shared, maintaining sharer sets.
func (e *Engine) dropCleanFrame(n proto.NodeID, page proto.PageID) {
	first := e.arch.FirstItem(page)
	for i := 0; i < e.arch.ItemsPerPage(); i++ {
		it := first + proto.ItemID(i)
		if e.ams[n].State(it) == proto.Shared {
			if entry, ok := e.dir.Lookup(it); ok {
				entry.Sharers.Remove(n)
			}
			e.ams[n].SetState(it, proto.Invalid)
			e.cacheOps.InvalidateItem(n, it)
		}
	}
	e.ams[n].DropFrame(page)
}

// handleInjectData acknowledges an injection data transfer at node n.
// It models the receive-side timing: the acknowledgement goes out
// InjectAckDelay cycles after the item arrives, and the copy into memory
// (a controller hold, see OnEvent) happens after the ack (paper §4.2.2).
// The state was installed at probe time.
func (e *Engine) handleInjectData(n proto.NodeID, m mesh.Message) {
	e.net.Send(mesh.Message{
		Kind:  proto.MsgInjectAck,
		Src:   n,
		Dst:   m.Requester,
		Item:  m.Item,
		Reply: m.Token,
		Txn:   m.Txn,
	})
}
