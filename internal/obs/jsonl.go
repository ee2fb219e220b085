package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
func (ev *Event) AppendJSONL(buf []byte) []byte {
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendInt(buf, ev.Time, 10)
	buf = append(buf, `,"k":"`...)
	buf = append(buf, ev.Kind.String()...)
	buf = append(buf, `","n":`...)
	buf = strconv.AppendInt(buf, int64(ev.Node), 10)
	buf = append(buf, `,"i":`...)
	buf = strconv.AppendInt(buf, int64(ev.Item), 10)
	if ev.Kind == KState {
		buf = append(buf, `,"from":"`...)
		buf = append(buf, ev.From.String()...)
		buf = append(buf, `","to":"`...)
		buf = append(buf, ev.To.String()...)
		buf = append(buf, '"')
	}
	if ev.Kind == KInjectProbe || ev.Kind == KInjectAccept {
		buf = append(buf, `,"cause":"`...)
		buf = append(buf, ev.Cause.String()...)
		buf = append(buf, '"')
		if ev.Txn != proto.NoTxn {
			buf = append(buf, `,"txn":`...)
			buf = strconv.AppendInt(buf, int64(ev.Txn), 10)
		}
	}
	if ev.Kind == KTxnBegin || ev.Kind == KTxnHop || ev.Kind == KTxnEnd {
		buf = append(buf, `,"txn":`...)
		buf = strconv.AppendInt(buf, int64(ev.Txn), 10)
		if ev.Kind == KTxnBegin && ev.Par != proto.NoTxn {
			buf = append(buf, `,"par":`...)
			buf = strconv.AppendInt(buf, int64(ev.Par), 10)
		}
	}
	buf = append(buf, `,"a":`...)
	buf = strconv.AppendInt(buf, ev.A, 10)
	buf = append(buf, `,"b":`...)
	buf = strconv.AppendInt(buf, ev.B, 10)
	buf = append(buf, '}', '\n')
	return buf
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
