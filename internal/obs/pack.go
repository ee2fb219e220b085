package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"coma/internal/proto"
)

// The packed trace form stores an event stream in about a tenth of its
// canonical JSONL size, for traces that are kept long but read rarely
// (the receipt traces a daemon keeps beside every result). Each event
// is a kind byte followed by varints for exactly the fields its
// canonical JSONL line prints, so UnpackJSONL reproduces the canonical
// bytes by construction:
//
//	kind        1 byte: the kind in the low 5 bits; packFlag set when
//	            the optional txn (inject kinds) or parent (txn-begin)
//	            follows, aZero when a is zero, bZero when b is zero
//	t           zig-zag varint, delta from the previous event's time
//	n           zig-zag varint
//	i           zig-zag varint, delta from the last item of node n
//	from, to    1 byte each                      (state)
//	cause       1 byte                           (inject kinds)
//	txn         uvarint origin slot, then zig-zag varint, delta from
//	            the last txn of that slot        (txn kinds; inject
//	            kinds when flagged)
//	par         zig-zag varint, delta from txn   (flagged txn-begin)
//	a, b        zig-zag varints, each left out when flagged zero
//
// A txn's origin slot is int64(txn)>>proto.TxnSeqBits, its origin node
// plus one (0 for the checkpoint coordinator). Transactions of several
// origins interleave in a trace, but each origin mints its IDs in
// sequence, so a delta within the slot stays small where one from the
// previous txn would span the origin bits. A TxnID no node could mint
// (negative, or above the highest origin) goes to escapeSlot, whose
// delta is from the last escaped txn. Every slot starts from sequence
// 0 and every node from item 0. The decoder rejects every encoding the
// packer never writes (a zero a or b written out, a txn outside the
// slot it names, a varint longer than its value needs), so a log has
// exactly one encoding: re-packing what it decodes to gives its bytes.
//
// A log is the concatenation of its events; there is no header.

// Kind-byte flags. Kinds take the low 5 bits.
const (
	packFlag = 0x80 // an optional txn field follows
	aZero    = 0x40 // a is zero and left out
	bZero    = 0x20 // b is zero and left out
	kindMask = 0x1f
)

// Every kind must fit under kindMask.
var _ [kindMask + 1 - numKinds]struct{}

// Origin slots of the txn field: 0 (the coordinator) to maxSlot (the
// highest NodeID, plus one); escapeSlot takes every other TxnID.
const (
	maxSlot    = math.MaxInt16 + 1
	escapeSlot = maxSlot + 1
	seqMask    = 1<<proto.TxnSeqBits - 1
)

// MaxPackedLen bounds the bytes Packer.Append adds for one event, so a
// caller can size a buffer that an append never grows. The longest
// event is a flagged txn-begin in the escape slot with every field at
// its widest: 1+10+3+5+3+10+10+10+10 = 62 bytes.
const MaxPackedLen = 64

// Packer appends events to a packed trace. Time, item and txn are
// stored as deltas from earlier events, so one Packer must pack one
// log, in order. The zero value starts a new log.
type Packer struct {
	time   int64
	items  []proto.ItemID // last item per node, by nodeIndex
	seqs   []int64        // last sequence number per origin slot
	escape proto.TxnID    // last txn in escapeSlot
}

// Append appends the packed form of ev to buf and returns the extended
// slice. It allocates only when buf must grow, or the first time it
// meets a node or a txn origin beyond those seen so far.
func (p *Packer) Append(buf []byte, ev *Event) []byte {
	k := byte(ev.Kind)
	if isInject(ev.Kind) && ev.Txn != proto.NoTxn || ev.Kind == KTxnBegin && ev.Par != proto.NoTxn {
		k |= packFlag
	}
	if ev.A == 0 {
		k |= aZero
	}
	if ev.B == 0 {
		k |= bZero
	}
	buf = append(buf, k)
	buf = binary.AppendVarint(buf, ev.Time-p.time)
	p.time = ev.Time
	buf = binary.AppendVarint(buf, int64(ev.Node))
	last := grownAt(&p.items, nodeIndex(ev.Node))
	buf = binary.AppendVarint(buf, int64(ev.Item)-int64(*last))
	*last = ev.Item
	switch {
	case ev.Kind == KState:
		buf = append(buf, byte(ev.From), byte(ev.To))
	case isInject(ev.Kind):
		buf = append(buf, byte(ev.Cause))
		if k&packFlag != 0 {
			buf = p.appendTxn(buf, ev.Txn)
		}
	case isTxn(ev.Kind):
		buf = p.appendTxn(buf, ev.Txn)
		if k&packFlag != 0 {
			buf = binary.AppendVarint(buf, int64(ev.Par-ev.Txn))
		}
	}
	if ev.A != 0 {
		buf = binary.AppendVarint(buf, ev.A)
	}
	if ev.B != 0 {
		buf = binary.AppendVarint(buf, ev.B)
	}
	return buf
}

// appendTxn appends t as its origin slot and the delta within it.
func (p *Packer) appendTxn(buf []byte, t proto.TxnID) []byte {
	slot := uint64(t) >> proto.TxnSeqBits
	if slot > maxSlot {
		buf = binary.AppendUvarint(buf, escapeSlot)
		buf = binary.AppendVarint(buf, int64(t-p.escape))
		p.escape = t
		return buf
	}
	buf = binary.AppendUvarint(buf, slot)
	last := grownAt(&p.seqs, int(slot))
	seq := int64(t) & seqMask
	buf = binary.AppendVarint(buf, seq-*last)
	*last = seq
	return buf
}

// nodeIndex maps a node to its per-node table index: None to 0, the
// highest NodeID to maxSlot. It never fails, so a packer given a node
// below None still packs it (the decoder rejects that node).
func nodeIndex(n proto.NodeID) int { return int(uint16(n) + 1) }

// grownAt returns &(*t)[i], first growing *t with zero values when i
// is past its end.
func grownAt[T any](t *[]T, i int) *T {
	if i >= len(*t) {
		*t = append(*t, make([]T, i+1-len(*t))...)
	}
	return &(*t)[i]
}

func isInject(k Kind) bool { return k == KInjectProbe || k == KInjectAccept }

func isTxn(k Kind) bool { return k == KTxnBegin || k == KTxnHop || k == KTxnEnd }

// UnpackJSONL expands a packed trace to w as canonical JSONL: each
// event is decoded and re-emitted through Event.AppendJSONL, so the
// output is byte-identical to WriteJSONL over the packed events. The
// decoder is strict — an unknown kind or enum, an out-of-range node or
// item, a truncated event, a malformed varint or any other encoding
// Packer never writes is an error naming the event and its byte offset
// — so every line it writes is one ReadJSONL accepts. Output is written as it is decoded: bytes before a decode
// error have already reached w, so a caller that must not emit a cut
// stream validates first with io.Discard.
func UnpackJSONL(w io.Writer, packed []byte) error {
	const flushAt = 64 << 10
	d := unpacker{rest: packed}
	buf := make([]byte, 0, flushAt+512)
	var ev Event
	for n := 0; len(d.rest) > 0; n++ {
		off := len(packed) - len(d.rest)
		if err := d.next(&ev); err != nil {
			return fmt.Errorf("obs: packed trace: event %d at byte %d: %w", n, off, err)
		}
		buf = ev.AppendJSONL(buf)
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// unpacker decodes a packed trace one event at a time, carrying the
// delta state Packer.Append wrote it with.
type unpacker struct {
	prev Packer
	rest []byte
}

var errTruncated = errors.New("truncated event")

// uvarint decodes one uvarint. It rejects an encoding longer than the
// value needs (one that ends in a zero byte), so every value, and with
// the kind-byte rules every log, has exactly one encoding.
func (d *unpacker) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.rest)
	switch {
	case n == 0:
		return 0, errTruncated
	case n < 0:
		return 0, errors.New("varint overflows 64 bits")
	case n > 1 && d.rest[n-1] == 0:
		return 0, errors.New("varint longer than its value needs")
	}
	d.rest = d.rest[n:]
	return v, nil
}

// varint decodes one zig-zag varint, with uvarint's rules.
func (d *unpacker) varint() (int64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x, nil
}

func (d *unpacker) byte() (byte, error) {
	if len(d.rest) == 0 {
		return 0, errTruncated
	}
	b := d.rest[0]
	d.rest = d.rest[1:]
	return b, nil
}

// nonZero decodes a varint that the kind byte did not flag as zero.
func (d *unpacker) nonZero(field string) (int64, error) {
	v, err := d.varint()
	if err == nil && v == 0 {
		err = fmt.Errorf("zero %s written without its flag", field)
	}
	return v, err
}

// next decodes one event into ev.
func (d *unpacker) next(ev *Event) error {
	kb, err := d.byte()
	if err != nil {
		return err
	}
	k, flagged := Kind(kb&kindMask), kb&packFlag != 0
	if k >= numKinds {
		return fmt.Errorf("unknown event kind byte %#x", kb)
	}
	if flagged && !isInject(k) && k != KTxnBegin {
		return fmt.Errorf("optional-txn flag on %q event", k)
	}
	var f [3]int64 // dt, n, di
	for j := range f {
		if f[j], err = d.varint(); err != nil {
			return err
		}
	}
	d.prev.time += f[0]
	if f[1] < int64(proto.None) || f[1] > math.MaxInt16 {
		return fmt.Errorf("node %d out of range", f[1])
	}
	node := proto.NodeID(f[1])
	last := grownAt(&d.prev.items, nodeIndex(node))
	// A delta that wraps lands far outside the item range.
	item := int64(*last) + f[2]
	if item < int64(proto.NoItem) || item > math.MaxInt32 {
		return fmt.Errorf("item %d out of range", item)
	}
	*last = proto.ItemID(item)
	*ev = Event{Time: d.prev.time, Kind: k, Node: node, Item: proto.ItemID(item)}
	switch {
	case k == KState:
		from, err := d.byte()
		if err != nil {
			return err
		}
		to, err := d.byte()
		if err != nil {
			return err
		}
		if from >= byte(proto.NumStates) || to >= byte(proto.NumStates) {
			return fmt.Errorf("unknown state byte in %d -> %d", from, to)
		}
		ev.From, ev.To = proto.State(from), proto.State(to)
	case isInject(k):
		c, err := d.byte()
		if err != nil {
			return err
		}
		if c >= byte(proto.NumInjectCauses) {
			return fmt.Errorf("unknown inject cause byte %d", c)
		}
		ev.Cause = proto.InjectCause(c)
		if flagged {
			if ev.Txn, err = d.txn(); err != nil {
				return err
			}
			if ev.Txn == proto.NoTxn {
				return fmt.Errorf("explicit zero txn id on %q event", k)
			}
		}
	case isTxn(k):
		if ev.Txn, err = d.txn(); err != nil {
			return err
		}
		if flagged {
			dp, err := d.varint()
			if err != nil {
				return err
			}
			if ev.Par = ev.Txn + proto.TxnID(dp); ev.Par == proto.NoTxn {
				return errors.New("explicit zero parent txn")
			}
		}
	}
	if kb&aZero == 0 {
		if ev.A, err = d.nonZero("a"); err != nil {
			return err
		}
	}
	if kb&bZero == 0 {
		ev.B, err = d.nonZero("b")
	}
	return err
}

// txn decodes a txn field and advances its slot's delta base.
func (d *unpacker) txn() (proto.TxnID, error) {
	slot, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if slot > escapeSlot {
		return 0, fmt.Errorf("txn origin slot %d above the escape slot %d", slot, escapeSlot)
	}
	dt, err := d.varint()
	if err != nil {
		return 0, err
	}
	if slot == escapeSlot {
		t := d.prev.escape + proto.TxnID(dt)
		if uint64(t)>>proto.TxnSeqBits <= maxSlot {
			return 0, fmt.Errorf("escaped txn %d belongs to origin slot %d", t, uint64(t)>>proto.TxnSeqBits)
		}
		d.prev.escape = t
		return t, nil
	}
	last := grownAt(&d.prev.seqs, int(slot))
	// A delta that wraps lands outside the sequence range.
	seq := *last + dt
	if seq < 0 || seq > seqMask {
		return 0, fmt.Errorf("txn delta %d leaves origin slot %d", dt, slot)
	}
	*last = seq
	return proto.TxnID(slot<<proto.TxnSeqBits | uint64(seq)), nil
}
