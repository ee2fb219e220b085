package coherence

import (
	"fmt"

	"coma/internal/mesh"
	"coma/internal/proto"
)

// homeRequest handles a read or write request arriving at the item's home
// node: it consults the localisation pointer and either grants a cold
// first touch or forwards the request to the current owner.
func (e *Engine) homeRequest(h proto.NodeID, m mesh.Message) {
	entry, ok := e.dir.Lookup(m.Item)
	if !ok || entry.Owner() == proto.None {
		// The item has never been written: it is initialised-background
		// memory (the paper measures the parallel phase of applications
		// whose data was initialised earlier). Reads receive Shared
		// zero-filled copies tracked in the sharing set; the first write
		// invalidates them and creates the master. The initiator holds
		// the item lock, so updating the entry here is race-free.
		entry = e.dir.Ensure(m.Item)
		acks := 0
		if m.Kind == proto.MsgWriteReq {
			entry.Sharers.ForEach(func(s proto.NodeID) {
				if s == m.Requester {
					return
				}
				acks++
				e.net.Send(mesh.Message{
					Kind:      proto.MsgInvalidate,
					Src:       h,
					Dst:       s,
					Item:      m.Item,
					Requester: m.Requester,
					Txn:       m.Txn,
				})
			})
			entry.Sharers.Clear()
			entry.SetOwner(m.Requester)
		} else {
			entry.Sharers.Add(m.Requester)
		}
		e.net.Send(mesh.Message{
			Kind:  proto.MsgColdGrant,
			Src:   h,
			Dst:   m.Requester,
			Item:  m.Item,
			Arg:   int64(acks),
			Reply: m.Token,
			Txn:   m.Txn,
		})
		return
	}
	fwd := proto.MsgReadFwd
	if m.Kind == proto.MsgWriteReq {
		fwd = proto.MsgWriteFwd
	}
	e.net.Send(mesh.Message{
		Kind:      fwd,
		Src:       h,
		Dst:       entry.Owner(),
		Item:      m.Item,
		Requester: m.Requester,
		Token:     m.Token,
		Txn:       m.Txn,
	})
}

// ownerRead serves a forwarded read miss at the owning node: it reads the
// item, adds the requester to the sharing set and replies with data. An
// Exclusive owner downgrades to MasterShared; a Shared-CK1 owner serves
// the read unchanged (the ECP lets recovery copies serve misses).
func (e *Engine) ownerRead(o proto.NodeID, m mesh.Message) {
	slot := e.ams[o].Slot(m.Item)
	switch slot.State {
	case proto.Exclusive:
		e.ams[o].SetState(m.Item, proto.MasterShared)
		e.cacheOps.DowngradeItem(o, m.Item)
	case proto.MasterShared, proto.SharedCK1:
		// Serve as-is.
	default:
		panic(fmt.Sprintf("coherence: node %v asked to serve read of item %d in %v",
			o, m.Item, slot.State))
	}
	entry, _ := e.dir.Lookup(m.Item)
	entry.Sharers.Add(m.Requester)
	e.net.Send(mesh.Message{
		Kind:  proto.MsgDataReply,
		Src:   o,
		Dst:   m.Requester,
		Item:  m.Item,
		Value: slot.Value,
		State: proto.Shared,
		Reply: m.Token,
		Txn:   m.Txn,
	})
}

// ownerWrite serves a forwarded write miss at the owning node: it
// invalidates every sharer (they acknowledge directly to the requester),
// hands data and ownership to the requester, and — under the ECP, when
// the item was unmodified since the last recovery point — downgrades the
// Shared-CK pair to Inv-CK instead of destroying it.
func (e *Engine) ownerWrite(o proto.NodeID, m mesh.Message) {
	slot := e.ams[o].Slot(m.Item)
	entry, _ := e.dir.Lookup(m.Item)
	acks := 0
	entry.Sharers.ForEach(func(s proto.NodeID) {
		if s == m.Requester {
			return
		}
		acks++
		e.net.Send(mesh.Message{
			Kind:      proto.MsgInvalidate,
			Src:       o,
			Dst:       s,
			Item:      m.Item,
			Requester: m.Requester,
			Txn:       m.Txn,
		})
	})
	entry.Sharers.Clear()

	switch slot.State {
	case proto.Exclusive, proto.MasterShared:
		// The standard protocol destroys the old master after the data
		// moves.
		e.ams[o].SetState(m.Item, proto.Invalid)
		e.cacheOps.InvalidateItem(o, m.Item)
	case proto.SharedCK1:
		// ECP §3.2: the two Shared-CK copies become Inv-CK and are kept
		// for a possible recovery.
		e.ams[o].SetState(m.Item, proto.InvCK1)
		e.cacheOps.InvalidateItem(o, m.Item)
		if slot.Partner == proto.None {
			panic(fmt.Sprintf("coherence: Shared-CK1 of item %d on %v has no partner", m.Item, o))
		}
		if slot.Partner == m.Requester {
			panic(fmt.Sprintf("coherence: requester %v still holds the CK2 copy of item %d",
				m.Requester, m.Item))
		}
		acks++
		e.net.Send(mesh.Message{
			Kind:      proto.MsgInvalidate,
			Src:       o,
			Dst:       slot.Partner,
			Item:      m.Item,
			Requester: m.Requester,
			Txn:       m.Txn,
		})
	default:
		panic(fmt.Sprintf("coherence: node %v asked to serve write of item %d in %v",
			o, m.Item, slot.State))
	}

	entry.SetOwner(m.Requester)
	// Localisation-pointer update: state is already consistent (the
	// simulator mutates under the item lock); the message carries timing.
	if h := e.dir.Home(m.Item); h != o && h != m.Requester {
		e.net.Send(mesh.Message{Kind: proto.MsgHomeUpdate, Src: o, Dst: h, Item: m.Item, Txn: m.Txn})
	}

	e.net.Send(mesh.Message{
		Kind:  proto.MsgDataReply,
		Src:   o,
		Dst:   m.Requester,
		Item:  m.Item,
		Value: slot.Value,
		State: proto.Exclusive,
		Arg:   int64(acks),
		Reply: m.Token,
		Txn:   m.Txn,
	})
}

// handleInvalidate processes an invalidation at a node holding a Shared
// copy (drop it) or the Shared-CK2 copy (downgrade to Inv-CK2), then
// acknowledges to the requester.
func (e *Engine) handleInvalidate(n proto.NodeID, m mesh.Message) {
	e.counters[n].InvalidationsIn++
	switch st := e.ams[n].State(m.Item); st {
	case proto.Shared:
		e.ams[n].SetState(m.Item, proto.Invalid)
	case proto.SharedCK2:
		e.ams[n].SetState(m.Item, proto.InvCK2)
	case proto.Invalid:
		// The copy was dropped (frame eviction or injection overwrite)
		// while the invalidation was in flight; just acknowledge.
	default:
		panic(fmt.Sprintf("coherence: node %v invalidating item %d in %v", n, m.Item, st))
	}
	e.cacheOps.InvalidateItem(n, m.Item)
	e.net.Send(mesh.Message{
		Kind: proto.MsgInvalidateAck,
		Src:  n,
		Dst:  m.Requester,
		Item: m.Item,
		Txn:  m.Txn,
	})
}

// handlePreCommitUpgrade turns a local Shared copy into the PreCommit2
// recovery copy of the establishment in progress — the paper's
// replication-reuse optimisation: no data transfer happens.
func (e *Engine) handlePreCommitUpgrade(n proto.NodeID, m mesh.Message) {
	if st := e.ams[n].State(m.Item); st != proto.Shared {
		panic(fmt.Sprintf("coherence: pre-commit upgrade of item %d on %v in %v", m.Item, n, st))
	}
	e.ams[n].SetState(m.Item, proto.PreCommit2)
	e.ams[n].SetPartner(m.Item, m.Src)
	e.net.Send(mesh.Message{
		Kind:  proto.MsgPreCommitUpgradeAck,
		Src:   n,
		Dst:   m.Src,
		Item:  m.Item,
		Reply: m.Token,
		Txn:   m.Txn,
	})
}
