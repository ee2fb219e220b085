package directory

import (
	"math/rand/v2"
	"runtime"
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
	if _, ok := d.Lookup(5); ok {
		t.Fatal("entry exists before Ensure")
	}
	e := d.Ensure(5)
	if e.Owner() != proto.None {
		t.Fatalf("fresh owner = %v", e.Owner())
	}
	e.SetOwner(3)
	if d.Ensure(5).Owner() != 3 {
		t.Fatal("Ensure did not return the existing entry")
	}
	if d.Items() != 1 {
		t.Fatalf("items = %d", d.Items())
	}
	d.Drop(5)
	if _, ok := d.Lookup(5); ok || d.Items() != 0 {
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
// against a map-based model, over enough items that the index grows far
// past its first 1024 slots while Drops land inside probe runs (so
// backward-shift deletion moves slots). Dropped records are reused, so a
// reused entry must start ownerless with an empty sharer set, and no two
// live items may share a record. The 70-node case gives every record a
// two-word sharer set carved from one shared word array, so a write
// spilling into a neighbour's words shows up.
func TestEntrySlabMatchesMapModel(t *testing.T) {
	type model struct {
		owner   proto.NodeID
		sharers map[proto.NodeID]bool
	}
	same := func(e Entry, m *model) bool {
		if e.Owner() != m.owner || e.Sharers.Len() != len(m.sharers) {
			return false
		}
		for _, n := range e.Sharers.Members() {
			if !m.sharers[n] {
				return false
			}
		}
		return true
	}
	for _, nodes := range []int{16, 70} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(nodes)))
			d := New(nodes)
			ref := map[proto.ItemID]*model{}
			midRun, peak := 0, 0
			verify := func(when int) {
				t.Helper()
				if d.Items() != len(ref) {
					t.Fatalf("%d nodes, seed %d, op %d: Items = %d, model %d",
						nodes, seed, when, d.Items(), len(ref))
				}
				seen := map[*proto.NodeID]bool{}
				d.ForEach(func(item proto.ItemID, e Entry) {
					m := ref[item]
					if l, ok := d.Lookup(item); m == nil || seen[e.owner] || !ok ||
						l.owner != e.owner || !same(e, m) {
						t.Fatalf("%d nodes, seed %d, op %d: item %d disagrees with the model",
							nodes, seed, when, item)
					}
					seen[e.owner] = true
				})
				if len(seen) != len(ref) {
					t.Fatalf("ForEach visited %d items, model has %d", len(seen), len(ref))
				}
			}
			for i := range 40000 {
				item := proto.ItemID(2 * rng.IntN(6000)) // strided: items recur
				node := proto.NodeID(rng.IntN(nodes))
				switch rng.IntN(4) {
				case 0, 1: // Ensure, then mutate owner and sharers
					e := d.Ensure(item)
					m := ref[item]
					if m == nil {
						if e.Owner() != proto.None || e.Sharers.Len() != 0 {
							t.Fatalf("fresh or reused entry for %d: owner %v, sharers %v",
								item, e.Owner(), e.Sharers.Members())
						}
						m = &model{owner: proto.None, sharers: map[proto.NodeID]bool{}}
						ref[item] = m
					}
					if rng.IntN(3) == 0 {
						e.SetOwner(node)
						m.owner = node
					}
					e.Sharers.Add(node)
					m.sharers[node] = true
				case 2:
					if j := d.find(item); j >= 0 && d.index[(j+1)&(len(d.index)-1)].key != 0 {
						midRun++
					}
					d.Drop(item)
					delete(ref, item)
				case 3:
					e, ok := d.Lookup(item)
					if m := ref[item]; ok != (m != nil) || ok && !same(e, m) {
						t.Fatalf("Lookup(%d) = %v, model has %v", item, ok, m)
					}
				}
				peak = max(peak, len(ref))
				if i%5000 == 4999 {
					verify(i)
				}
			}
			verify(-1)
			if peak < 3000 || len(d.index) <= 1024 || midRun < 100 {
				t.Fatalf("%d nodes, seed %d: peak %d live items, index %d slots, %d mid-run drops: the stream no longer exercises growth and backward shift",
					nodes, seed, peak, len(d.index), midRun)
			}
		}
	}
}

// TestDroppedEntryIsReusedClean pins the free-list contract directly:
// the next Ensure after a Drop gets the dropped record back, ownerless
// and with no sharers, whichever item it is for.
func TestDroppedEntryIsReusedClean(t *testing.T) {
	d := New(70)
	e := d.Ensure(1)
	e.SetOwner(4)
	e.Sharers.Add(2)
	e.Sharers.Add(69)
	d.Drop(1)
	r := d.Ensure(2)
	if r.owner != e.owner {
		t.Fatal("Ensure after Drop did not reuse the dropped record")
	}
	if r.Owner() != proto.None || r.Sharers.Len() != 0 {
		t.Fatalf("reused entry: owner %v, sharers %v", r.Owner(), r.Sharers.Members())
	}
	d.Drop(3) // dropping an absent item is a no-op
	if got := d.Ensure(3); got.owner == e.owner {
		t.Fatal("a no-op Drop put a record on the free list")
	}
}

// TestEntryHandleSurvivesGrowth: index growth moves slots, never
// records, so a handle taken before thousands of Ensures still names
// the item's state afterwards.
func TestEntryHandleSurvivesGrowth(t *testing.T) {
	d := New(70)
	e := d.Ensure(7)
	e.SetOwner(2)
	for i := range 5000 {
		d.Ensure(proto.ItemID(100 + 3*i))
	}
	if len(d.index) <= firstIndex {
		t.Fatalf("index has %d slots: it never grew", len(d.index))
	}
	e.SetOwner(5)
	e.Sharers.Add(66)
	got, ok := d.Lookup(7)
	if !ok || got.Owner() != 5 || !got.Sharers.Contains(66) || got.Sharers.Len() != 1 {
		t.Fatalf("Lookup(7) = %v owner %v sharers %v, want owner n5 and sharer n66",
			ok, got.Owner(), got.Sharers.Members())
	}
}

// TestDirectoryBytesPerEntry bounds the host heap one directory entry
// costs, measured over a finished-run-sized directory (13,565 items on
// 16 nodes, every other item touched, as a sim-ecp job leaves it).
func TestDirectoryBytesPerEntry(t *testing.T) {
	const entries, maxBytes = 13565, 40
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := New(16)
	for i := range entries {
		d.Ensure(proto.ItemID(2 * i)).SetOwner(proto.NodeID(i % 16))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / entries
	runtime.KeepAlive(d)
	if per > maxBytes {
		t.Fatalf("directory costs %.1f B per entry, want at most %d", per, maxBytes)
	}
	t.Logf("%.1f B per entry", per)
}

// BenchmarkDirectory runs one job's worth of directory traffic over a
// sparse, strided item stream shaped like sim-ecp's: first touches of
// every other item, lookups of each, and a rollback that drops the
// items created since the last recovery point and re-creates them.
func BenchmarkDirectory(b *testing.B) {
	const entries = 13565
	b.ReportAllocs()
	for b.Loop() {
		d := New(16)
		for i := range entries {
			d.Ensure(proto.ItemID(2 * i)).Sharers.Add(proto.NodeID(i % 16))
		}
		for i := range entries {
			if e, ok := d.Lookup(proto.ItemID(2 * i)); !ok || e.Sharers.Len() != 1 {
				b.Fatalf("item %d lost its entry", 2*i)
			}
		}
		for i := entries / 2; i < entries; i++ {
			d.Drop(proto.ItemID(2 * i))
		}
		for i := entries / 2; i < entries; i++ {
			d.Ensure(proto.ItemID(2 * i))
		}
	}
}
