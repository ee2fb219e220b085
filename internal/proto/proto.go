// Package proto defines the vocabulary shared by every layer of the
// simulator: node/item/page identifiers, coherence states (standard COMA-F
// states plus the recovery states added by the Extended Coherence
// Protocol), message kinds, injection causes, and the protocol's
// specification: its transition table (ECPTransitions) and the one edge
// type (Edge) and edge set (ECPEdges) every conformance check counts in.
//
// It is a leaf package: it imports nothing from the rest of the module so
// that the attraction memory, the directory and the protocol engine can all
// speak the same types without cycles.
package proto

import (
	"cmp"
	"fmt"
	"slices"
)

// NodeID identifies a processing node. The zero value is a valid node;
// None marks the absence of a node (for example "no owner yet").
type NodeID int16

// None is the sentinel "no node" value.
const None NodeID = -1

// Valid reports whether n refers to an actual node.
func (n NodeID) Valid() bool { return n >= 0 }

func (n NodeID) String() string {
	if n == None {
		return "none"
	}
	return fmt.Sprintf("n%d", int(n))
}

// ItemID is the global index of a memory item (the COMA coherence unit,
// 128 bytes in the paper's configuration). Items are numbered densely from
// zero over the shared address space: item = address / ItemSize.
type ItemID int32

// NoItem marks the absence of an item.
const NoItem ItemID = -1

// PageID is the global index of a memory page (the AM allocation unit,
// 16 KB in the paper's configuration).
type PageID int32

// NoPage marks the absence of a page.
const NoPage PageID = -1

// State is the coherence state of one item copy in one attraction memory.
//
// The first four states form the standard COMA-F write-invalidate protocol.
// The remaining six are the states the paper's Extended Coherence Protocol
// adds to identify recovery data; each recovery pair is split into a "1"
// and a "2" copy so that exactly one of the pair (the 1 copy) may deliver
// exclusive access rights, avoiding multiple owners (paper §4.1).
type State uint8

const (
	// Invalid: the slot holds no usable copy.
	Invalid State = iota
	// Shared: a read-only copy; other copies may exist.
	Shared
	// MasterShared: the master copy of an item that has Shared replicas.
	// The master must never be purged without injection.
	MasterShared
	// Exclusive: the only valid copy of the item; read-write.
	Exclusive
	// SharedCK1 is the primary recovery copy of an item unmodified since
	// the last recovery point. Readable; serves read misses; the only CK
	// copy allowed to hand out exclusive rights.
	SharedCK1
	// SharedCK2 is the secondary recovery copy of an unmodified item.
	// Readable by the local processor.
	SharedCK2
	// InvCK1 is the primary recovery copy of an item modified since the
	// last recovery point. Not accessible; kept only for rollback.
	InvCK1
	// InvCK2 is the secondary recovery copy of a modified item.
	InvCK2
	// PreCommit1 is the transient-between-checkpoint-phases primary copy
	// of the recovery point being established.
	PreCommit1
	// PreCommit2 is the secondary copy of the recovery point being
	// established.
	PreCommit2

	// NumStates bounds the enum; exported so observers can size
	// fixed-width per-state tallies (obs.StateCounts) without a map.
	NumStates
)

var stateNames = [NumStates]string{
	"Invalid", "Shared", "MasterShared", "Exclusive",
	"SharedCK1", "SharedCK2", "InvCK1", "InvCK2", "PreCommit1", "PreCommit2",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Readable reports whether the local processor may read this copy.
// Inv-CK copies are kept only for recovery and must be treated as misses.
func (s State) Readable() bool {
	switch s {
	case Shared, MasterShared, Exclusive, SharedCK1, SharedCK2:
		return true
	case Invalid, InvCK1, InvCK2, PreCommit1, PreCommit2:
		return false
	}
	panic("proto: Readable of unknown state " + s.String())
}

// Writable reports whether the local processor may write this copy
// without a coherence transaction.
func (s State) Writable() bool { return s == Exclusive }

// Owner reports whether this copy answers remote requests for the item:
// Exclusive and MasterShared in the standard protocol, SharedCK1 (and the
// transient PreCommit1) under the ECP when the item is unmodified since the
// last recovery point.
func (s State) Owner() bool {
	switch s {
	case Exclusive, MasterShared, SharedCK1, PreCommit1:
		return true
	case Invalid, Shared, SharedCK2, InvCK1, InvCK2, PreCommit2:
		return false
	}
	panic("proto: Owner of unknown state " + s.String())
}

// Recovery reports whether the copy belongs to a recovery point (committed
// or being established) and therefore must never be silently dropped.
func (s State) Recovery() bool {
	switch s {
	case SharedCK1, SharedCK2, InvCK1, InvCK2, PreCommit1, PreCommit2:
		return true
	case Invalid, Shared, MasterShared, Exclusive:
		return false
	}
	panic("proto: Recovery of unknown state " + s.String())
}

// CheckpointCommitted reports whether the copy belongs to the last
// committed recovery point (Shared-CK or Inv-CK).
func (s State) CheckpointCommitted() bool {
	switch s {
	case SharedCK1, SharedCK2, InvCK1, InvCK2:
		return true
	case Invalid, Shared, MasterShared, Exclusive, PreCommit1, PreCommit2:
		return false
	}
	panic("proto: CheckpointCommitted of unknown state " + s.String())
}

// Current reports whether the copy belongs to the current computation
// state (as opposed to recovery data): Shared, MasterShared or Exclusive.
// Shared-CK copies are both recovery and current until the item is first
// modified, but they are classified as recovery here.
func (s State) Current() bool {
	switch s {
	case Shared, MasterShared, Exclusive:
		return true
	case Invalid, SharedCK1, SharedCK2, InvCK1, InvCK2, PreCommit1, PreCommit2:
		return false
	}
	panic("proto: Current of unknown state " + s.String())
}

// Replaceable reports whether an AM may silently reuse the slot holding a
// copy in this state to accept an injection or a replacement (paper §4.1:
// "To accept an injection, an AM can only replace one of its Invalid or
// Shared lines").
func (s State) Replaceable() bool { return s == Invalid || s == Shared }

// Modified reports whether the copy represents data modified since the
// last recovery point from the checkpointing algorithm's point of view
// (the create phase replicates Exclusive and Master-Shared copies).
func (s State) Modified() bool { return s == Exclusive || s == MasterShared }

// Primary reports whether this is the "1" copy of a recovery pair.
func (s State) Primary() bool {
	return s == SharedCK1 || s == InvCK1 || s == PreCommit1
}

// Partner returns the state of the other copy of a recovery pair:
// SharedCK1 <-> SharedCK2 and so on. It panics for non-recovery states.
func (s State) Partner() State {
	switch s {
	case SharedCK1:
		return SharedCK2
	case SharedCK2:
		return SharedCK1
	case InvCK1:
		return InvCK2
	case InvCK2:
		return InvCK1
	case PreCommit1:
		return PreCommit2
	case PreCommit2:
		return PreCommit1
	default:
		panic("proto: Partner of non-recovery state " + s.String())
	}
}

// MsgKind enumerates the message types exchanged by node controllers.
type MsgKind uint8

const (
	// MsgReadReq asks the home (then owner) for a read copy.
	MsgReadReq MsgKind = iota
	// MsgWriteReq asks the home (then owner) for an exclusive copy.
	MsgWriteReq
	// MsgReadFwd is a read request forwarded from the home to the owner.
	MsgReadFwd
	// MsgWriteFwd is a write request forwarded from the home to the owner.
	MsgWriteFwd
	// MsgColdGrant tells a first-toucher it may create the item locally
	// (no data travels: the item did not exist anywhere).
	MsgColdGrant
	// MsgDataReply carries one item of data back to a requester.
	MsgDataReply
	// MsgInvalidate tells a node to drop its Shared copy (or downgrade a
	// Shared-CK copy to Inv-CK).
	MsgInvalidate
	// MsgInvalidateAck acknowledges an invalidation.
	MsgInvalidateAck
	// MsgInjectProbe asks a ring neighbour whether it can accept an
	// injected copy (step one of the two-step injection).
	MsgInjectProbe
	// MsgInjectAccept answers a probe positively.
	MsgInjectAccept
	// MsgInjectRefuse answers a probe negatively; the source tries the
	// next node on the logical ring.
	MsgInjectRefuse
	// MsgInjectData carries the injected item (step two).
	MsgInjectData
	// MsgInjectAck confirms reception of injected data (sent 5 cycles
	// after reception in the paper's configuration).
	MsgInjectAck
	// MsgHomeUpdate updates the localisation pointer at the item's home.
	MsgHomeUpdate
	// MsgPageAlloc asks an anchor node to reserve an irreplaceable page
	// frame for a newly touched page.
	MsgPageAlloc
	// MsgPartnerUpdate updates the recovery-pair partner pointer held by
	// the other copy of the pair.
	MsgPartnerUpdate
	// MsgPreCommitUpgrade turns a remote Shared copy into the PreCommit2
	// copy of the recovery point being established (the paper's
	// replication-reuse optimisation: no data transfer).
	MsgPreCommitUpgrade
	// MsgPreCommitUpgradeAck acknowledges the upgrade.
	MsgPreCommitUpgradeAck
	// MsgCkptPrepare starts a recovery-point establishment (coordinator
	// to all nodes).
	MsgCkptPrepare
	// MsgCkptCreateDone reports completion of a node's create phase.
	MsgCkptCreateDone
	// MsgCkptCommit starts the (local) commit phase on all nodes.
	MsgCkptCommit
	// MsgCkptCommitDone reports completion of a node's commit phase.
	MsgCkptCommitDone
	// MsgRecover orders every node to restore the last recovery point.
	MsgRecover
	// MsgRecoverDone reports completion of a node's restoration scan.
	MsgRecoverDone

	numMsgKinds
)

var msgKindNames = [numMsgKinds]string{
	"ReadReq", "WriteReq", "ReadFwd", "WriteFwd", "ColdGrant",
	"DataReply", "Invalidate", "InvalidateAck",
	"InjectProbe", "InjectAccept", "InjectRefuse", "InjectData", "InjectAck",
	"HomeUpdate", "PageAlloc", "PartnerUpdate",
	"PreCommitUpgrade", "PreCommitUpgradeAck",
	"CkptPrepare", "CkptCreateDone", "CkptCommit", "CkptCommitDone",
	"Recover", "RecoverDone",
}

func (k MsgKind) String() string {
	if int(k) < len(msgKindNames) {
		return msgKindNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Carry reports whether messages of this kind carry a full item of data
// (and therefore occupy data-sized messages on the reply subnetwork).
func (k MsgKind) Carry() bool {
	return k == MsgDataReply || k == MsgInjectData
}

// InjectCause classifies why an injection happened, matching Table 1 of
// the paper plus the two causes that already exist in a standard COMA
// (master replacement) and the one added by recovery-point establishment.
type InjectCause uint8

const (
	// InjectReplaceMaster: a master (Exclusive or Master-Shared) copy was
	// chosen as a replacement victim (standard COMA behaviour).
	InjectReplaceMaster InjectCause = iota
	// InjectReplaceSharedCK: a Shared-CK copy was chosen as a victim.
	InjectReplaceSharedCK
	// InjectReplaceInvCK: an Inv-CK copy was chosen as a victim.
	InjectReplaceInvCK
	// InjectReadInvCK: a read access hit a local Inv-CK copy (injection
	// followed by a read miss).
	InjectReadInvCK
	// InjectWriteInvCK: a write access hit a local Inv-CK copy (injection
	// followed by a write miss).
	InjectWriteInvCK
	// InjectWriteSharedCK: a write access hit a local Shared-CK copy
	// (injection followed by a write miss).
	InjectWriteSharedCK
	// InjectCheckpoint: replication performed by the create phase of a
	// recovery-point establishment.
	InjectCheckpoint
	// InjectReconfigure: re-replication performed after a permanent
	// failure to restore recovery-data persistence.
	InjectReconfigure

	NumInjectCauses // NumInjectCauses is the number of injection causes.
)

var injectCauseNames = [NumInjectCauses]string{
	"replace-master", "replace-shared-ck", "replace-inv-ck",
	"read-inv-ck", "write-inv-ck", "write-shared-ck",
	"checkpoint", "reconfigure",
}

func (c InjectCause) String() string {
	if int(c) < len(injectCauseNames) {
		return injectCauseNames[c]
	}
	return fmt.Sprintf("InjectCause(%d)", uint8(c))
}

// OnRead reports whether the cause is an injection triggered by a read
// access (Fig. 6 and Fig. 11 of the paper split injections into read- and
// write-triggered).
func (c InjectCause) OnRead() bool { return c == InjectReadInvCK }

// OnWrite reports whether the cause is an injection triggered by a write
// access.
func (c InjectCause) OnWrite() bool {
	return c == InjectWriteInvCK || c == InjectWriteSharedCK
}

// TxnID identifies one protocol transaction (a read or write miss, an
// injection, or a whole checkpoint/recovery round) across every message
// and observability event it touches. IDs are minted at the transaction's
// origin from a per-origin monotonic counter, so they are deterministic
// for a given seed: same run, same IDs.
//
// Layout: bits 40+ hold the origin (NodeID+1, so the coordinator's None
// origin encodes as 0), bits 0..39 the per-origin sequence number, which
// must start at 1. The zero TxnID means "no transaction" and is never
// minted.
type TxnID int64

// NoTxn is the zero TxnID: the message or event belongs to no traced
// transaction.
const NoTxn TxnID = 0

// txnSeqBits is the width of the per-origin sequence field.
const txnSeqBits = 40

// MakeTxnID mints the transaction ID for the seq-th transaction
// originated by node origin (None for the checkpoint coordinator).
// seq must be >= 1.
func MakeTxnID(origin NodeID, seq int64) TxnID {
	if seq <= 0 {
		panic(fmt.Sprintf("proto: MakeTxnID seq %d (must be >= 1)", seq))
	}
	return TxnID((int64(origin)+1)<<txnSeqBits | seq)
}

// Valid reports whether t names an actual transaction.
func (t TxnID) Valid() bool { return t != NoTxn }

// Origin returns the node that minted t (None for coordinator rounds).
func (t TxnID) Origin() NodeID { return NodeID(int64(t)>>txnSeqBits) - 1 }

// Seq returns t's per-origin sequence number.
func (t TxnID) Seq() int64 { return int64(t) & (1<<txnSeqBits - 1) }

func (t TxnID) String() string {
	if t == NoTxn {
		return "txn:none"
	}
	return fmt.Sprintf("txn:%v#%d", t.Origin(), t.Seq())
}

// Transition is one edge of the Extended Coherence Protocol's state
// machine as implemented by the engines: a copy in state From moves to
// state To through the protocol action described by Via.
type Transition struct {
	From, To State
	Via      string
}

// ECPTransitions returns the full per-copy transition table of the
// Extended Coherence Protocol (standard COMA-F edges plus the recovery
// edges of paper §4). A pair reached by several actions may be listed
// once per action; ECPEdges reduces the table to its edge set, the
// reference that `comatrace coverage` and cmd/comamodel diff against.
// Keep it in sync with the coherence and snoop engines.
func ECPTransitions() []Transition {
	t := []Transition{
		// Standard COMA-F access edges.
		{Invalid, Shared, "read fill (cold, remote or injected)"},
		{Invalid, Exclusive, "write fill"},
		{Shared, Exclusive, "write upgrade after invalidating sharers"},
		{MasterShared, Exclusive, "in-place write upgrade by the master"},
		{Exclusive, MasterShared, "owner downgrade serving a read miss"},
		{Exclusive, Invalid, "ownership transfer / replacement / rollback"},
		{MasterShared, Invalid, "ownership transfer / replacement / rollback"},
		{Shared, Invalid, "invalidation / silent replacement / rollback"},
		// Write to an item unmodified since the recovery point: the
		// committed pair is preserved as Inv-CK (paper Table 1).
		{SharedCK1, InvCK1, "write to unmodified item (primary demoted)"},
		{SharedCK2, InvCK2, "write to unmodified item (partner demoted)"},
		// Recovery-point establishment.
		{Exclusive, PreCommit1, "create phase: modified item enters pre-commit"},
		{MasterShared, PreCommit1, "create phase: modified item enters pre-commit"},
		{Shared, PreCommit2, "create phase: replication reuse of a Shared copy"},
		{PreCommit1, SharedCK1, "commit scan"},
		{PreCommit2, SharedCK2, "commit scan"},
		{InvCK1, Invalid, "commit scan discard / injection moves the copy"},
		{InvCK2, Invalid, "commit scan discard / injection moves the copy"},
		// Rollback and reconfiguration.
		{InvCK1, SharedCK1, "recovery scan restores the recovery point"},
		{InvCK2, SharedCK2, "recovery scan restores the recovery point"},
		{PreCommit1, Invalid, "recovery scan aborts an uncommitted point"},
		{PreCommit2, Invalid, "recovery scan aborts an uncommitted point"},
		{SharedCK2, SharedCK1, "reconfiguration promotes the surviving copy"},
		{SharedCK1, Invalid, "injection moves the copy elsewhere"},
		{SharedCK2, Invalid, "injection moves the copy elsewhere"},
	}
	// Injection installs: the accepting AM overwrites an Invalid or Shared
	// slot with the migrating copy's state (paper §4.1 allows only those
	// two victims). Exclusive/Shared targets are covered above; list the
	// remaining install edges explicitly.
	for _, to := range []State{MasterShared, SharedCK1, SharedCK2, InvCK1, InvCK2, PreCommit2} {
		t = append(t,
			Transition{Invalid, to, "injection install"},
			Transition{Shared, to, "injection install overwriting a Shared victim"},
		)
	}
	return t
}

// Edge is one (From, To) pair of the protocol's state machine: the unit
// the conformance gate, the runtime edge suite and trace coverage count
// in, whatever action realises it.
type Edge struct {
	From, To State
}

func (e Edge) String() string { return fmt.Sprintf("%v -> %v", e.From, e.To) }

// Recovery reports whether the edge touches a recovery state on either
// end — the edges the paper adds over standard COMA-F, and the ones a
// coverage report most wants exercised.
func (e Edge) Recovery() bool { return e.From.Recovery() || e.To.Recovery() }

// Compare orders edges by From, then To; use it with slices.SortFunc.
func (e Edge) Compare(o Edge) int {
	return cmp.Or(cmp.Compare(e.From, o.From), cmp.Compare(e.To, o.To))
}

// ECPEdges returns the protocol's edge set: the distinct (From, To)
// pairs of ECPTransitions, self-loops dropped, sorted by Compare. It is
// the one derivation of that set; everything that measures coverage
// against the specification counts against it.
func ECPEdges() []Edge {
	var es []Edge
	for _, tr := range ECPTransitions() {
		if tr.From != tr.To {
			es = append(es, Edge{tr.From, tr.To})
		}
	}
	slices.SortFunc(es, Edge.Compare)
	return slices.Compact(es)
}
