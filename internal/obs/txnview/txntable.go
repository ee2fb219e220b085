package txnview

import "coma/internal/proto"

// txnRec is one transaction's record in a txnTable: flags in the top
// bits and, in a dense record, the begin time below them. The zero
// value means the transaction never began.
type txnRec uint64

const (
	txnBegun    txnRec = 1 << 63 // a begin was seen
	txnEnded    txnRec = 1 << 62 // an end was seen
	txnPending  txnRec = 1 << 61 // an access awaits its end's fill check
	txnAnyCopy  txnRec = 1 << 60 // some copy of the item existed at begin
	txnAnyOwner txnRec = 1 << 59 // some owner copy existed at begin
	txnTimeMask txnRec = 1<<59 - 1
)

// snapped returns r pending its end's fill check, with the item's
// copies as its access began.
func (r txnRec) snapped(anyCopy, anyOwner bool) txnRec {
	r = r&^(txnAnyCopy|txnAnyOwner) | txnPending
	if anyCopy {
		r |= txnAnyCopy
	}
	if anyOwner {
		r |= txnAnyOwner
	}
	return r
}

// txnTable holds one record per transaction begun. A TxnID is
// (origin+1)<<40 | seq and every origin mints its sequence numbers
// from 1 up, so the records live in one array per origin slot, indexed
// by sequence number, with no hashing. Only origin slots up to maxSlot
// have arrays, a slot grows only to take a seq less than maxAhead past
// its length, and only a begin time in [0, 2^59) fits a dense record;
// every other transaction (a negative ID, an origin past maxSlot, a
// seq far ahead, an odd time) goes to the far map, so a hostile trace
// costs memory in proportion to its events, not to the IDs it names.
type txnTable struct {
	slots []chunked[txnRec]
	far   map[proto.TxnID]*farTxn
}

// farTxn is a record the slots do not take; its time bits are unused.
type farTxn struct {
	rec   txnRec
	begin int64
}

const (
	// maxSlot is the highest origin slot with an array: nodes up to
	// 1022, four times the largest machine a job may name.
	maxSlot = 1<<10 - 1
	// maxAhead bounds how far past its length a slot grows for one
	// begin, and so the zeroed records a begin can cost.
	maxAhead = 64
)

// dense returns id's origin slot and sequence number; ok is false when
// the slot has no array.
func dense(id proto.TxnID) (slot int, seq int64, ok bool) {
	s := int64(id) >> proto.TxnSeqBits
	return int(s), id.Seq(), s >= 0 && s <= maxSlot
}

// get returns id's record, or nil if it never began.
func (t *txnTable) get(id proto.TxnID) *txnRec {
	if s, q, ok := dense(id); ok && s < len(t.slots) && q < int64(t.slots[s].n) {
		if r := t.slots[s].at(int(q)); *r != 0 {
			return r
		}
	}
	if ft := t.far[id]; ft != nil {
		return &ft.rec
	}
	return nil
}

// begin returns id's record, first filing one begun at time when id
// has none; first reports that it did.
func (t *txnTable) begin(id proto.TxnID, time int64) (rec *txnRec, first bool) {
	if r := t.get(id); r != nil {
		return r, false
	}
	if s, q, ok := dense(id); ok && time >= 0 && txnRec(time) <= txnTimeMask {
		if s >= len(t.slots) {
			t.slots = append(t.slots, make([]chunked[txnRec], s+1-len(t.slots))...)
		}
		if slot := &t.slots[s]; q < int64(slot.n)+maxAhead {
			if q >= int64(slot.n) {
				slot.grow(int(q) + 1)
			}
			r := slot.at(int(q))
			*r = txnBegun | txnRec(time)
			return r, true
		}
	}
	if t.far == nil {
		t.far = make(map[proto.TxnID]*farTxn)
	}
	ft := &farTxn{rec: txnBegun, begin: time}
	t.far[id] = ft
	return &ft.rec, true
}

// beganAt returns the begin time of id, which has a record.
func (t *txnTable) beganAt(id proto.TxnID) int64 {
	if ft := t.far[id]; ft != nil {
		return ft.begin
	}
	return int64(*t.get(id) & txnTimeMask)
}
