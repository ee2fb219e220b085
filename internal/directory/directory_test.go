package directory

import (
	"testing"
	"testing/quick"

	"coma/internal/proto"
)

func TestHomeDistribution(t *testing.T) {
	d := New(16)
	counts := make(map[proto.NodeID]int)
	for i := proto.ItemID(0); i < 1600; i++ {
		counts[d.Home(i)]++
	}
	if len(counts) != 16 {
		t.Fatalf("homes used = %d, want 16", len(counts))
	}
	for n, c := range counts {
		if c != 100 {
			t.Fatalf("node %v homes %d items, want 100", n, c)
		}
	}
}

func TestHomeRemapsOnFailure(t *testing.T) {
	d := New(4)
	item := proto.ItemID(1)
	if d.Home(item) != 1 {
		t.Fatalf("home = %v, want 1", d.Home(item))
	}
	d.SetAlive(1, false)
	h := d.Home(item)
	if h == 1 {
		t.Fatal("home still on dead node")
	}
	if !d.Alive(h) {
		t.Fatal("home mapped to dead node")
	}
	if d.AliveCount() != 3 {
		t.Fatalf("alive = %d", d.AliveCount())
	}
	// Rejoin (transient failure) restores the original mapping.
	d.SetAlive(1, true)
	if d.Home(item) != 1 {
		t.Fatal("home did not return after rejoin")
	}
}

func TestNextAliveSkipsDead(t *testing.T) {
	d := New(5)
	d.SetAlive(2, false)
	if got := d.NextAlive(1); got != 3 {
		t.Fatalf("NextAlive(1) = %v, want 3 (skipping dead 2)", got)
	}
	if got := d.NextAlive(4); got != 0 {
		t.Fatalf("NextAlive(4) = %v, want 0 (wrap)", got)
	}
	// Successor of a dead node is well defined (ring reconfiguration).
	if got := d.NextAlive(2); got != 3 {
		t.Fatalf("NextAlive(dead 2) = %v, want 3", got)
	}
}

func TestRingVisitsAllAliveNodes(t *testing.T) {
	d := New(9)
	d.SetAlive(4, false)
	seen := map[proto.NodeID]bool{}
	n := proto.NodeID(0)
	for i := 0; i < d.AliveCount(); i++ {
		seen[n] = true
		n = d.NextAlive(n)
	}
	if len(seen) != 8 {
		t.Fatalf("ring visited %d nodes, want 8", len(seen))
	}
	if seen[4] {
		t.Fatal("ring visited dead node")
	}
	if n != 0 {
		t.Fatalf("ring did not close: back at %v", n)
	}
}

func TestAnchors(t *testing.T) {
	d := New(16)
	a := d.Anchors(nil, 14, 4)
	want := []proto.NodeID{14, 15, 0, 1}
	if len(a) != 4 {
		t.Fatalf("anchors = %v", a)
	}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("anchors = %v, want %v", a, want)
		}
	}
	// With a dead toucher the anchor set shifts to live nodes.
	d.SetAlive(14, false)
	a = d.Anchors(nil, 14, 4)
	for _, n := range a {
		if !d.Alive(n) {
			t.Fatalf("dead anchor %v in %v", n, a)
		}
	}
	// More anchors than nodes clamps.
	small := New(3)
	if got := small.Anchors(nil, 0, 4); len(got) != 3 {
		t.Fatalf("clamped anchors = %v", got)
	}
}

func TestEnsureAndDrop(t *testing.T) {
	d := New(8)
	if d.Lookup(5) != nil {
		t.Fatal("entry exists before Ensure")
	}
	e := d.Ensure(5)
	if e.Owner != proto.None {
		t.Fatalf("fresh owner = %v", e.Owner)
	}
	e.Owner = 3
	if d.Ensure(5).Owner != 3 {
		t.Fatal("Ensure did not return the existing entry")
	}
	if d.Items() != 1 {
		t.Fatalf("items = %d", d.Items())
	}
	d.Drop(5)
	if d.Lookup(5) != nil || d.Items() != 0 {
		t.Fatal("Drop left the entry")
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(70) // spans two words
	if b.Len() != 0 || b.First() != proto.None {
		t.Fatal("fresh bitset not empty")
	}
	b.Add(0)
	b.Add(69)
	b.Add(64)
	if !b.Contains(69) || !b.Contains(0) || b.Contains(1) {
		t.Fatal("membership wrong")
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d", b.Len())
	}
	var order []proto.NodeID
	b.ForEach(func(n proto.NodeID) { order = append(order, n) })
	if len(order) != 3 || order[0] != 0 || order[1] != 64 || order[2] != 69 {
		t.Fatalf("order = %v", order)
	}
	if b.First() != 0 {
		t.Fatalf("first = %v", b.First())
	}
	b.Remove(0)
	if b.Contains(0) || b.Len() != 2 {
		t.Fatal("remove failed")
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatal("clear failed")
	}
}

func TestBitsetMembers(t *testing.T) {
	b := NewBitset(70)
	if got := b.Members(); len(got) != 0 {
		t.Fatalf("empty Members = %v", got)
	}
	for _, n := range []proto.NodeID{5, 0, 69, 64} {
		b.Add(n)
	}
	got := b.Members()
	want := []proto.NodeID{0, 5, 64, 69}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestBitsetOutOfRangePanics(t *testing.T) {
	b := NewBitset(4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Add did not panic")
		}
	}()
	b.Add(4)
}

func TestBitsetProperty(t *testing.T) {
	f := func(adds []uint8) bool {
		b := NewBitset(64)
		ref := map[proto.NodeID]bool{}
		for _, a := range adds {
			n := proto.NodeID(a % 64)
			if a%2 == 0 {
				b.Add(n)
				ref[n] = true
			} else {
				b.Remove(n)
				delete(ref, n)
			}
		}
		if b.Len() != len(ref) {
			return false
		}
		ok := true
		b.ForEach(func(n proto.NodeID) {
			if !ref[n] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEntrySlabMatchesMapModel drives Ensure/Drop/Lookup/ForEach/Items
// against a map-based model. Entries come from slab blocks and dropped
// ones are reused, so a reused entry must start ownerless with an empty
// sharer set, and no two live items may share an entry. The 70-node
// case gives every entry a two-word sharer set carved from one shared
// word array, so a write spilling into a neighbour's words shows up.
func TestEntrySlabMatchesMapModel(t *testing.T) {
	type model struct {
		owner   proto.NodeID
		sharers map[proto.NodeID]bool
	}
	for _, nodes := range []int{16, 70} {
		f := func(ops []uint16) bool {
			d := New(nodes)
			ref := map[proto.ItemID]*model{}
			for i, op := range ops {
				item := proto.ItemID(op % 97) // small range: items recur
				node := proto.NodeID(int(op>>7) % nodes)
				switch i % 4 {
				case 0, 1: // Ensure, then mutate owner and sharers
					e := d.Ensure(item)
					m := ref[item]
					if m == nil {
						if e.Owner != proto.None || e.Sharers.Len() != 0 {
							t.Logf("fresh or reused entry for %d: owner %v, sharers %v",
								item, e.Owner, e.Sharers.Members())
							return false
						}
						m = &model{owner: proto.None, sharers: map[proto.NodeID]bool{}}
						ref[item] = m
					}
					if op%3 == 0 {
						e.Owner, m.owner = node, node
					}
					e.Sharers.Add(node)
					m.sharers[node] = true
				case 2:
					d.Drop(item)
					delete(ref, item)
				case 3:
					if e := d.Lookup(item); (e == nil) != (ref[item] == nil) {
						t.Logf("Lookup(%d) = %v, model has %v", item, e, ref[item])
						return false
					}
				}
			}
			if d.Items() != len(ref) {
				t.Logf("Items = %d, model %d", d.Items(), len(ref))
				return false
			}
			seen := map[*Entry]bool{}
			ok := true
			d.ForEach(func(item proto.ItemID, e *Entry) {
				m := ref[item]
				if m == nil || seen[e] || e != d.Lookup(item) || e.Owner != m.owner ||
					e.Sharers.Len() != len(m.sharers) {
					ok = false
					return
				}
				seen[e] = true
				e.Sharers.ForEach(func(n proto.NodeID) {
					if !m.sharers[n] {
						ok = false
					}
				})
			})
			return ok && len(seen) == len(ref)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
	}
}

// TestDroppedEntryIsReusedClean pins the free-list contract directly:
// the next Ensure after a Drop gets the dropped entry back, ownerless
// and with no sharers, whichever item it is for.
func TestDroppedEntryIsReusedClean(t *testing.T) {
	d := New(70)
	e := d.Ensure(1)
	e.Owner = 4
	e.Sharers.Add(2)
	e.Sharers.Add(69)
	d.Drop(1)
	r := d.Ensure(2)
	if r != e {
		t.Fatal("Ensure after Drop did not reuse the dropped entry")
	}
	if r.Owner != proto.None || r.Sharers.Len() != 0 {
		t.Fatalf("reused entry: owner %v, sharers %v", r.Owner, r.Sharers.Members())
	}
	d.Drop(3) // dropping an absent item is a no-op
	if got := d.Ensure(3); got == e {
		t.Fatal("a no-op Drop put an entry on the free list")
	}
}
