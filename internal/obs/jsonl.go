package obs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"

	"coma/internal/proto"
)

// jsonlEvent is the on-disk shape of one event. Enumerations travel as
// their names so logs stay greppable and survive enum renumbering.
// Txn/Par are pointers so the reader can tell an explicit zero from an
// absent field and enforce the per-kind field rules below.
type jsonlEvent struct {
	Time  int64  `json:"t"`
	Kind  string `json:"k"`
	Node  int64  `json:"n"`
	Item  int64  `json:"i"`
	From  string `json:"from,omitempty"`
	To    string `json:"to,omitempty"`
	Cause string `json:"cause,omitempty"`
	Txn   *int64 `json:"txn,omitempty"`
	Par   *int64 `json:"par,omitempty"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
}

// AppendJSONL appends the event's canonical JSONL line (newline
// included) to buf and returns the extended slice. The encoding is
// hand-assembled in field order with no map in sight, so the same event
// stream always produces the same bytes (the byte-identical-trace golden
// test depends on this), and it allocates only when buf must grow.
//
// The line is written in place: AppendJSONL reserves maxLineLen bytes
// of capacity and may scribble over all of it past the line's end.
// Each key with its surrounding punctuation, and each name with its
// key, is one prebuilt frag written with two 16-byte moves, and
// integers go through putInt, which writes the digits
// strconv.AppendInt would without its serial chain of divisions.
func (ev *Event) AppendJSONL(buf []byte) []byte {
	buf = slices.Grow(buf, maxLineLen)
	b := buf[len(buf) : len(buf)+maxLineLen]
	n := fragTime.put(b)
	n += putInt(b[n:], ev.Time)
	n += kindFrags[ev.Kind].put(b[n:])
	n += putInt(b[n:], int64(ev.Node))
	n += fragItem.put(b[n:])
	n += putInt(b[n:], int64(ev.Item))
	switch ev.Kind {
	case KState:
		n += fromFrags[ev.From].put(b[n:])
		n += toFrags[ev.To].put(b[n:])
	case KInjectProbe, KInjectAccept:
		n += causeFrags[ev.Cause].put(b[n:])
		if ev.Txn != proto.NoTxn {
			n += fragTxn.put(b[n:])
			n += putInt(b[n:], int64(ev.Txn))
		}
	case KTxnBegin, KTxnHop, KTxnEnd:
		n += fragTxn.put(b[n:])
		n += putInt(b[n:], int64(ev.Txn))
		if ev.Kind == KTxnBegin && ev.Par != proto.NoTxn {
			n += fragPar.put(b[n:])
			n += putInt(b[n:], int64(ev.Par))
		}
	}
	n += fragA.put(b[n:])
	n += putInt(b[n:], ev.A)
	n += fragB.put(b[n:])
	n += putInt(b[n:], ev.B)
	b[n], b[n+1] = '}', '\n'
	return buf[:len(buf)+n+2]
}

// maxLineLen is the capacity AppendJSONL reserves for one line: the
// longest line it can write (every integer at its widest, every name
// at its longest, out-of-range "Kind(255)" and "State(255)" included,
// 180 bytes) plus a whole frag stored past its end.
const maxLineLen = 256

// frag is a constant run of a JSONL line, padded to 32 bytes so that
// writing it is two 16-byte moves, not a memmove call.
type frag struct {
	b [32]byte
	n int
}

// newFrag returns s as a frag; s must fit.
func newFrag(s string) frag {
	var f frag
	if len(s) > len(f.b) {
		panic("obs: JSONL fragment " + s + " is longer than a frag")
	}
	f.n = copy(f.b[:], s)
	return f
}

// put writes f at the start of b, which must have room for all 32
// bytes, and returns its length.
func (f *frag) put(b []byte) int {
	*(*[32]byte)(b) = f.b
	return f.n
}

var (
	fragTime = newFrag(`{"t":`)
	fragItem = newFrag(`,"i":`)
	fragTxn  = newFrag(`,"txn":`)
	fragPar  = newFrag(`,"par":`)
	fragA    = newFrag(`,"a":`)
	fragB    = newFrag(`,"b":`)

	// The name frags cover every value of their byte-sized enums, so
	// an out-of-range value prints as its String does ("Kind(200)").
	kindFrags  [256]frag
	fromFrags  [256]frag
	toFrags    [256]frag
	causeFrags [256]frag
)

func init() {
	for i := range 256 {
		kindFrags[i] = newFrag(`,"k":"` + Kind(i).String() + `","n":`)
		fromFrags[i] = newFrag(`,"from":"` + proto.State(i).String() + `","to":"`)
		toFrags[i] = newFrag(proto.State(i).String() + `"`)
		causeFrags[i] = newFrag(`,"cause":"` + proto.InjectCause(i).String() + `"`)
	}
}

// putInt writes v in decimal at the start of b and returns the bytes
// written, byte for byte what strconv.AppendInt(nil, v, 10) makes. b
// must have room for 24 bytes: the digits are stored 8 at a time. A
// single digit, as most nodes and a fields are, takes the inlined
// first branch.
func putInt(b []byte, v int64) int {
	if uint64(v) < 10 {
		b[0] = '0' + byte(v)
		return 1
	}
	return putWide(b, v)
}

// putWide is putInt for v outside [0, 9]. The digit count comes
// first, from the bit length, so the next field's position does not
// wait on the digits. The magnitude is cut into blocks of 8 digits,
// each converted by swar8, so a 13-digit TxnID takes two independent
// blocks where strconv divides by 100 six times in a row. The leading
// block is shifted to drop its zeros; bytes stored past the digits are
// left for the caller to overwrite.
func putWide(b []byte, v int64) int {
	u, sign := uint64(v), 0
	if v < 0 {
		b[0] = '-'
		b, u, sign = b[1:], -u, 1
	}
	n := decimalLen(u)
	switch {
	case n <= 8:
		putLast(b, swar8(uint32(u)), n)
	case n <= 16:
		hi := u / 1e8
		putLast(b, swar8(uint32(hi)), n-8)
		putLast(b[n-8:], swar8(uint32(u-hi*1e8)), 8)
	default:
		hi, mid := u/1e16, u/1e8
		putLast(b, swar8(uint32(hi)), n-16)
		putLast(b[n-16:], swar8(uint32(mid-hi*1e8)), 8)
		putLast(b[n-8:], swar8(uint32(u-mid*1e8)), 8)
	}
	return sign + n
}

// putLast writes the last k (1 to 8) of the 8 digits in x as ASCII; it
// stores 8 bytes.
func putLast(b []byte, x uint64, k int) {
	binary.LittleEndian.PutUint64(b, x>>(uint(64-8*k)&63)+0x3030303030303030)
}

// swar8 returns the 8 decimal digits of v (below 10^8), leading zeros
// included, as byte values 0-9 with the first digit in the low byte, so
// a little-endian store writes them in order. The digits are split in
// SIMD-within-a-register style: v into two 4-digit lanes, each lane
// into two 2-digit lanes, each of those into two digits, with the
// divisions by 100 and 10 done by multiply and shift (exact for lanes
// below 10^4 and 100).
func swar8(v uint32) uint64 {
	hi := v / 1e4
	x := uint64(hi) | uint64(v-hi*1e4)<<32
	q := (x * 10486 >> 20) & 0x0000007f_0000007f
	x = q | (x-q*100)<<16
	q = (x * 103 >> 10) & 0x000f_000f_000f_000f
	return q | (x-q*10)<<8
}

// pow10 holds 10^0 to 10^19, every power of ten a uint64 takes.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of u, which is at
// least 1: its bit length times log10(2) gives the count or one less.
func decimalLen(u uint64) int {
	d := bits.Len64(u) * 1233 >> 12
	if u >= pow10[d] {
		d++
	}
	return d
}

// WriteJSONL writes the events as a JSON-lines log.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 256)
	for i := range events {
		buf = events[i].AppendJSONL(buf[:0])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Reverse name lookups for decoding. Built once from the String methods
// so they can never drift from the canonical names.
var (
	kindFromName  = map[string]Kind{}
	stateFromName = map[string]proto.State{}
	causeFromName = map[string]proto.InjectCause{}
)

func init() {
	for k := Kind(0); k < numKinds; k++ {
		kindFromName[k.String()] = k
	}
	for i := 0; ; i++ {
		s := proto.State(i)
		if strings.HasPrefix(s.String(), "State(") {
			break
		}
		stateFromName[s.String()] = s
	}
	for c := proto.InjectCause(0); c < proto.NumInjectCauses; c++ {
		causeFromName[c.String()] = c
	}
}

// ReadJSONL parses a JSON-lines log written by WriteJSONL into a
// slice, with ScanJSONL's strictness.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	err := ScanJSONL(r, func(ev Event) error {
		out = append(out, ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanJSONL parses a JSON-lines log written by WriteJSONL, calling fn
// with each event in order, so a consumer that folds the trace never
// holds it whole. Parsing is strict — unknown fields, fields on the
// wrong event kind, out-of-range identifiers and trailing garbage are
// all line-numbered errors — so that any accepted line re-encodes to
// the same event (the FuzzJSONLRoundTrip property) and the offline
// checker never runs on a silently mangled trace. An error from fn
// stops the scan and is returned as is.
func ScanJSONL(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		ev, err := parseJSONLLine(raw)
		if err != nil {
			return fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

func parseJSONLLine(raw string) (Event, error) {
	var je jsonlEvent
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&je); err != nil {
		return Event{}, err
	}
	if dec.More() {
		return Event{}, fmt.Errorf("trailing data after event object")
	}
	k, ok := kindFromName[je.Kind]
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", je.Kind)
	}
	if je.Node < int64(proto.None) || je.Node > 1<<15-1 {
		return Event{}, fmt.Errorf("node %d out of range", je.Node)
	}
	if je.Item < int64(proto.NoItem) || je.Item > 1<<31-1 {
		return Event{}, fmt.Errorf("item %d out of range", je.Item)
	}
	ev := Event{
		Time: je.Time,
		Kind: k,
		Node: proto.NodeID(je.Node),
		Item: proto.ItemID(je.Item),
		A:    je.A,
		B:    je.B,
	}
	inject := k == KInjectProbe || k == KInjectAccept
	txnKind := k == KTxnBegin || k == KTxnHop || k == KTxnEnd
	if k == KState {
		if je.From == "" || je.To == "" {
			return Event{}, fmt.Errorf("%q event needs from and to states", je.Kind)
		}
		from, ok := stateFromName[je.From]
		if !ok {
			return Event{}, fmt.Errorf("unknown state %q", je.From)
		}
		to, ok := stateFromName[je.To]
		if !ok {
			return Event{}, fmt.Errorf("unknown state %q", je.To)
		}
		ev.From, ev.To = from, to
	} else if je.From != "" || je.To != "" {
		return Event{}, fmt.Errorf("from/to states on non-state event %q", je.Kind)
	}
	if inject {
		c, ok := causeFromName[je.Cause]
		if !ok {
			return Event{}, fmt.Errorf("unknown inject cause %q", je.Cause)
		}
		ev.Cause = c
	} else if je.Cause != "" {
		return Event{}, fmt.Errorf("inject cause on non-inject event %q", je.Kind)
	}
	switch {
	case txnKind:
		if je.Txn == nil {
			return Event{}, fmt.Errorf("%q event needs a txn id", je.Kind)
		}
		ev.Txn = proto.TxnID(*je.Txn)
	case inject:
		if je.Txn != nil {
			if *je.Txn == 0 {
				return Event{}, fmt.Errorf("explicit zero txn id on %q event", je.Kind)
			}
			ev.Txn = proto.TxnID(*je.Txn)
		}
	case je.Txn != nil:
		return Event{}, fmt.Errorf("txn id on %q event", je.Kind)
	}
	if je.Par != nil {
		if k != KTxnBegin {
			return Event{}, fmt.Errorf("parent txn on %q event", je.Kind)
		}
		if *je.Par == 0 {
			return Event{}, fmt.Errorf("explicit zero parent txn")
		}
		ev.Par = proto.TxnID(*je.Par)
	}
	return ev, nil
}
