package obs

import (
	"bytes"
	"encoding/json"
	"fmt"

	"coma/internal/proto"
)

// StateCounts is a per-protocol-state tally: one slot per proto.State,
// indexed by the state value. A fixed array rather than a map so that
// building one allocates nothing, iteration order is the declaration
// order of the states (deterministic output for free), and copies are
// plain value assignments. Shared by the live-inspection layer
// (internal/inspect) and any exporter that wants a per-node ECP state
// histogram.
type StateCounts [proto.NumStates]int64

// Add tallies one copy in state s.
func (c *StateCounts) Add(s proto.State) { c[s]++ }

// Total returns the number of copies tallied across all states.
func (c *StateCounts) Total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// MarshalJSON renders the tally as an object keyed by state name, in
// state declaration order — hand-assembled, so the encoding is
// byte-deterministic like the rest of the obs exporters.
func (c StateCounts) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", proto.State(i).String(), v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON is the inverse of MarshalJSON, so clients (comad top, the
// daemon's tests) can decode inspection views. Unknown state names are
// ignored rather than rejected: a newer simulator may know states an
// older client does not.
func (c *StateCounts) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*c = StateCounts{}
	for i := range c {
		if v, ok := m[proto.State(i).String()]; ok {
			c[i] = v
		}
	}
	return nil
}

// NonZero calls fn for each state with a non-zero tally, in state
// declaration order.
func (c *StateCounts) NonZero(fn func(s proto.State, n int64)) {
	for i, v := range c {
		if v != 0 {
			fn(proto.State(i), v)
		}
	}
}
