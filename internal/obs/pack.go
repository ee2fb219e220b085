package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"coma/internal/proto"
)

// The packed trace form stores an event stream in about a sixth of its
// canonical JSONL size, for traces that are kept long but read rarely
// (the receipt traces a daemon keeps beside every result). Each event
// is a kind byte followed by varints for exactly the fields its
// canonical JSONL line prints, so UnpackJSONL reproduces the canonical
// bytes by construction:
//
//	kind        1 byte; packFlag set when the optional txn (inject kinds)
//	            or parent (txn-begin) follows
//	t           zig-zag varint, delta from the previous event's time
//	n, i        zig-zag varints
//	from, to    1 byte each                      (state)
//	cause       1 byte                           (inject kinds)
//	txn         zig-zag varint, delta from the previous txn packed
//	            (txn kinds; inject kinds when flagged)
//	par         zig-zag varint, delta from txn   (flagged txn-begin)
//	a, b        zig-zag varints
//
// A log is the concatenation of its events; there is no header.

// packFlag marks, in the kind byte, that an optional txn field follows.
const packFlag = 0x80

// MaxPackedLen bounds the bytes Packer.Append adds for one event, so a
// caller can size a buffer that an append never grows.
const MaxPackedLen = 64

// Packer appends events to a packed trace. Time and txn are stored as
// deltas from the previous event, so one Packer must pack one log, in
// order. The zero value starts a new log.
type Packer struct {
	time int64
	txn  proto.TxnID
}

// Append appends the packed form of ev to buf and returns the extended
// slice. It allocates only when buf must grow.
func (p *Packer) Append(buf []byte, ev *Event) []byte {
	k := byte(ev.Kind)
	if isInject(ev.Kind) && ev.Txn != proto.NoTxn || ev.Kind == KTxnBegin && ev.Par != proto.NoTxn {
		k |= packFlag
	}
	buf = append(buf, k)
	buf = binary.AppendVarint(buf, ev.Time-p.time)
	p.time = ev.Time
	buf = binary.AppendVarint(buf, int64(ev.Node))
	buf = binary.AppendVarint(buf, int64(ev.Item))
	switch {
	case ev.Kind == KState:
		buf = append(buf, byte(ev.From), byte(ev.To))
	case isInject(ev.Kind):
		buf = append(buf, byte(ev.Cause))
		if k&packFlag != 0 {
			buf = binary.AppendVarint(buf, int64(ev.Txn-p.txn))
			p.txn = ev.Txn
		}
	case isTxn(ev.Kind):
		buf = binary.AppendVarint(buf, int64(ev.Txn-p.txn))
		p.txn = ev.Txn
		if k&packFlag != 0 {
			buf = binary.AppendVarint(buf, int64(ev.Par-ev.Txn))
		}
	}
	buf = binary.AppendVarint(buf, ev.A)
	return binary.AppendVarint(buf, ev.B)
}

func isInject(k Kind) bool { return k == KInjectProbe || k == KInjectAccept }

func isTxn(k Kind) bool { return k == KTxnBegin || k == KTxnHop || k == KTxnEnd }

// UnpackJSONL expands a packed trace to w as canonical JSONL: each
// event is decoded and re-emitted through Event.AppendJSONL, so the
// output is byte-identical to WriteJSONL over the packed events. The
// decoder is strict — an unknown kind or enum, an out-of-range node or
// item, a truncated event or a malformed varint is an error naming the
// event and its byte offset — so every line it writes is one ReadJSONL
// accepts. Output is written as it is decoded: bytes before a decode
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

func (d *unpacker) varint() (int64, error) {
	v, n := binary.Varint(d.rest)
	switch {
	case n == 0:
		return 0, errTruncated
	case n < 0:
		return 0, errors.New("varint overflows 64 bits")
	}
	d.rest = d.rest[n:]
	return v, nil
}

func (d *unpacker) byte() (byte, error) {
	if len(d.rest) == 0 {
		return 0, errTruncated
	}
	b := d.rest[0]
	d.rest = d.rest[1:]
	return b, nil
}

// next decodes one event into ev.
func (d *unpacker) next(ev *Event) error {
	kb, err := d.byte()
	if err != nil {
		return err
	}
	k, flagged := Kind(kb&^packFlag), kb&packFlag != 0
	if k >= numKinds {
		return fmt.Errorf("unknown event kind byte %#x", kb)
	}
	if flagged && !isInject(k) && k != KTxnBegin {
		return fmt.Errorf("optional-txn flag on %q event", k)
	}
	var f [3]int64 // dt, n, i
	for j := range f {
		if f[j], err = d.varint(); err != nil {
			return err
		}
	}
	d.prev.time += f[0]
	if f[1] < int64(proto.None) || f[1] > 1<<15-1 {
		return fmt.Errorf("node %d out of range", f[1])
	}
	if f[2] < int64(proto.NoItem) || f[2] > 1<<31-1 {
		return fmt.Errorf("item %d out of range", f[2])
	}
	*ev = Event{Time: d.prev.time, Kind: k, Node: proto.NodeID(f[1]), Item: proto.ItemID(f[2])}
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
			if err := d.txn(ev); err != nil {
				return err
			}
			if ev.Txn == proto.NoTxn {
				return fmt.Errorf("explicit zero txn id on %q event", k)
			}
		}
	case isTxn(k):
		if err := d.txn(ev); err != nil {
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
	if ev.A, err = d.varint(); err != nil {
		return err
	}
	ev.B, err = d.varint()
	return err
}

// txn decodes a txn delta into ev.Txn and advances the delta base.
func (d *unpacker) txn(ev *Event) error {
	dt, err := d.varint()
	if err != nil {
		return err
	}
	d.prev.txn += proto.TxnID(dt)
	ev.Txn = d.prev.txn
	return nil
}
