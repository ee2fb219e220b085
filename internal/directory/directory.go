// Package directory implements the localisation machinery of the
// non-hierarchical COMA: statically distributed localisation pointers
// (each item has a home node that knows the current owner) and the
// per-item directory entry (sharing set, recovery-pair partner) that the
// paper keeps "on the node which is the current owner of the item".
//
// The simulator stores entries in one table for efficiency; the *cost* of
// consulting and updating them is paid in messages and cycles by the
// protocol engine, so the timing behaves as if the state were physically
// distributed. Membership (which nodes are alive, the logical injection
// ring, the home mapping) also lives here because home assignment and the
// ring must be recomputed when a node fails permanently.
package directory

import (
	"fmt"
	"math/bits"

	"coma/internal/proto"
)

// Entry is the directory state of one item.
type Entry struct {
	// Owner is the node whose copy answers requests: the holder of the
	// Exclusive, MasterShared, SharedCK1 or PreCommit1 copy. None until
	// the item is first touched (and again after a rollback that
	// discards a never-checkpointed item).
	Owner proto.NodeID
	// Sharers is the set of nodes holding Shared copies (the owner is
	// not a member).
	Sharers Bitset
}

// Directory is the global localisation state for one machine.
type Directory struct {
	nodes   int
	alive   []bool
	ring    []proto.NodeID // alive nodes in id order
	entries map[proto.ItemID]*Entry

	// slab is the unused tail of the current entry block: entries are
	// carved from blocks of entryBlock, each block backed by one Entry
	// array and one shared array of sharer words, so creating an entry
	// allocates nothing per item. free holds dropped entries for reuse.
	slab []Entry
	free []*Entry
}

// entryBlock is the number of entries carved from one slab block.
const entryBlock = 256

// New builds a directory for n nodes, all alive.
func New(n int) *Directory {
	if n < 1 {
		panic("directory: need at least one node")
	}
	d := &Directory{
		nodes:   n,
		alive:   make([]bool, n),
		entries: make(map[proto.ItemID]*Entry),
	}
	for i := range d.alive {
		d.alive[i] = true
	}
	d.rebuildRing()
	return d
}

// Nodes returns the configured node count (including dead nodes).
func (d *Directory) Nodes() int { return d.nodes }

// AliveCount returns the number of live nodes.
func (d *Directory) AliveCount() int { return len(d.ring) }

// Alive reports whether the node is live.
func (d *Directory) Alive(n proto.NodeID) bool { return d.alive[n] }

// AliveNodes returns the live nodes in id order. Callers must not mutate
// the returned slice.
func (d *Directory) AliveNodes() []proto.NodeID { return d.ring }

// SetAlive updates a node's liveness and recomputes the home mapping and
// logical ring. Killing the last node panics.
func (d *Directory) SetAlive(n proto.NodeID, alive bool) {
	d.alive[n] = alive
	d.rebuildRing()
	if len(d.ring) == 0 {
		panic("directory: no live nodes")
	}
}

func (d *Directory) rebuildRing() {
	d.ring = d.ring[:0]
	for i := 0; i < d.nodes; i++ {
		if d.alive[i] {
			d.ring = append(d.ring, proto.NodeID(i))
		}
	}
}

// Home returns the node holding the localisation pointer for the item:
// statically distributed over the live nodes.
func (d *Directory) Home(item proto.ItemID) proto.NodeID {
	return d.ring[int(item)%len(d.ring)]
}

// NextAlive returns the successor of n on the logical injection ring,
// skipping dead nodes. n itself need not be alive.
func (d *Directory) NextAlive(n proto.NodeID) proto.NodeID {
	if len(d.ring) == 1 {
		return d.ring[0]
	}
	for i := 1; i <= d.nodes; i++ {
		cand := proto.NodeID((int(n) + i) % d.nodes)
		if d.alive[cand] {
			return cand
		}
	}
	panic("directory: ring walk found no live node")
}

// Anchors appends to dst the irreplaceable-frame holders for a page: the
// given first toucher plus the following live ring nodes, count nodes in
// total (or fewer if the machine is smaller).
func (d *Directory) Anchors(dst []proto.NodeID, firstToucher proto.NodeID, count int) []proto.NodeID {
	if count > len(d.ring) {
		count = len(d.ring)
	}
	n := firstToucher
	if !d.alive[n] {
		n = d.NextAlive(n)
	}
	for range count {
		dst = append(dst, n)
		n = d.NextAlive(n)
	}
	return dst
}

// Lookup returns the entry for an item, or nil if it was never created.
func (d *Directory) Lookup(item proto.ItemID) *Entry {
	return d.entries[item]
}

// Ensure returns the entry for an item, creating an ownerless one on
// first touch.
func (d *Directory) Ensure(item proto.ItemID) *Entry {
	e := d.entries[item]
	if e == nil {
		e = d.newEntry()
		d.entries[item] = e
	}
	return e
}

// newEntry returns an ownerless entry with an empty sharer set: a
// dropped one if any, else the next one of the current slab block.
func (d *Directory) newEntry() *Entry {
	if n := len(d.free); n > 0 {
		e := d.free[n-1]
		d.free = d.free[:n-1]
		e.Owner = proto.None
		e.Sharers.Clear()
		return e
	}
	if len(d.slab) == 0 {
		w := (d.nodes + 63) / 64
		words := make([]uint64, entryBlock*w)
		d.slab = make([]Entry, entryBlock)
		for i := range d.slab {
			d.slab[i] = Entry{
				Owner:   proto.None,
				Sharers: Bitset{words: words[i*w : (i+1)*w : (i+1)*w], n: d.nodes},
			}
		}
	}
	e := &d.slab[0]
	d.slab = d.slab[1:]
	return e
}

// Drop removes an item's entry entirely (rollback of an item created
// after the last recovery point). The entry is reused by a later
// Ensure, so callers must not keep it past the Drop.
func (d *Directory) Drop(item proto.ItemID) {
	if e := d.entries[item]; e != nil {
		delete(d.entries, item)
		d.free = append(d.free, e)
	}
}

// Items returns the number of entries (items ever touched and still
// tracked).
func (d *Directory) Items() int { return len(d.entries) }

// ForEach visits every entry. Iteration order is unspecified; callers
// needing determinism must sort.
func (d *Directory) ForEach(fn func(item proto.ItemID, e *Entry)) {
	for item, e := range d.entries {
		fn(item, e)
	}
}

// Bitset is a fixed-capacity set of node IDs.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty set with capacity for nodes 0..n-1.
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

func (b *Bitset) check(i proto.NodeID) {
	if int(i) < 0 || int(i) >= b.n {
		panic(fmt.Sprintf("directory: node %v out of bitset range %d", i, b.n))
	}
}

// Add inserts a node.
func (b *Bitset) Add(i proto.NodeID) {
	b.check(i)
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Remove deletes a node.
func (b *Bitset) Remove(i proto.NodeID) {
	b.check(i)
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Contains reports membership.
func (b *Bitset) Contains(i proto.NodeID) bool {
	b.check(i)
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Len returns the number of members.
func (b *Bitset) Len() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clear empties the set.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ForEach visits members in increasing id order.
func (b *Bitset) ForEach(fn func(proto.NodeID)) {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			fn(proto.NodeID(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}

// Members returns the members in increasing id order.
func (b *Bitset) Members() []proto.NodeID {
	out := make([]proto.NodeID, 0, b.Len())
	b.ForEach(func(n proto.NodeID) { out = append(out, n) })
	return out
}

// First returns the lowest member, or None if empty.
func (b *Bitset) First() proto.NodeID {
	for wi, w := range b.words {
		if w != 0 {
			return proto.NodeID(wi*64 + bits.TrailingZeros64(w))
		}
	}
	return proto.None
}
