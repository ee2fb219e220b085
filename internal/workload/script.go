package workload

// Script is a deterministic generator over a fixed reference slice, used
// by unit tests, micro-experiments and trace replay. Its rollback point
// is a stream position.
type Script struct {
	name  string
	refs  []Ref
	pos   int
	saved int // the rollback point
}

// NewScript wraps a fixed reference stream.
func NewScript(name string, refs []Ref) *Script {
	return &Script{name: name, refs: refs}
}

// Name implements Generator.
func (s *Script) Name() string { return s.name }

// Next implements Generator.
func (s *Script) Next() Ref {
	if s.pos >= len(s.refs) {
		return Ref{Kind: End}
	}
	r := s.refs[s.pos]
	s.pos++
	return r
}

// Commit implements Generator.
func (s *Script) Commit() { s.saved = s.pos }

// Rollback implements Generator.
func (s *Script) Rollback() { s.pos = s.saved }

// R is a shorthand read reference for building scripts.
func R(addr uint64) Ref { return Ref{Kind: Read, Addr: addr, Shared: true} }

// W is a shorthand write reference for building scripts.
func W(addr uint64) Ref { return Ref{Kind: Write, Addr: addr, Shared: true} }

// I is a shorthand instruction burst for building scripts.
func I(n int64) Ref { return Ref{Kind: Instr, N: n} }

// B is a shorthand barrier for building scripts.
func B() Ref { return Ref{Kind: Barrier} }
