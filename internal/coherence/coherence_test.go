package coherence

import (
	"testing"

	"coma/internal/am"
	"coma/internal/config"
	"coma/internal/directory"
	"coma/internal/mesh"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
)

// fakeCache records the protocol's cache manipulations.
type fakeCache struct {
	invalidations map[proto.NodeID]int
	downgrades    map[proto.NodeID]int
}

func newFakeCache() *fakeCache {
	return &fakeCache{
		invalidations: make(map[proto.NodeID]int),
		downgrades:    make(map[proto.NodeID]int),
	}
}

func (f *fakeCache) InvalidateItem(n proto.NodeID, item proto.ItemID) { f.invalidations[n]++ }
func (f *fakeCache) DowngradeItem(n proto.NodeID, item proto.ItemID)  { f.downgrades[n]++ }

type rig struct {
	t        testing.TB
	eng      *sim.Engine
	arch     config.Arch
	net      *mesh.Network
	dir      *directory.Directory
	ams      []*am.AM
	counters []*stats.Node
	cache    *fakeCache
	e        *Engine
}

func newRig(t testing.TB, nodes int, p Protocol, opts Options) *rig {
	t.Helper()
	eng := sim.New()
	arch := config.KSR1(nodes)
	net := mesh.New(eng, arch)
	dir := directory.New(nodes)
	ams := make([]*am.AM, nodes)
	counters := make([]*stats.Node, nodes)
	for i := range ams {
		ams[i] = am.New(arch, proto.NodeID(i))
		counters[i] = &stats.Node{}
	}
	cache := newFakeCache()
	e := New(eng, arch, p, opts, net, dir, ams, counters, cache)
	r := &rig{t: t, eng: eng, arch: arch, net: net, dir: dir, ams: ams,
		counters: counters, cache: cache, e: e}
	t.Cleanup(func() { eng.Shutdown() })
	return r
}

// run executes fn as a simulated process to completion.
func (r *rig) run(fn func(p *sim.Process)) {
	r.t.Helper()
	done := false
	r.eng.Spawn("test", func(p *sim.Process) { fn(p); done = true })
	if _, err := r.eng.Run(); err != nil {
		r.t.Fatal(err)
	}
	if !done {
		r.t.Fatal("test process did not complete (deadlock?)")
	}
	if r.e.LockedItems() != 0 {
		r.t.Fatalf("%d item locks still held after quiesce", r.e.LockedItems())
	}
}

// establish runs a full create+commit recovery point over all nodes,
// sequentially (state-equivalent to the parallel barriers of the real
// coordinator).
func (r *rig) establish(p *sim.Process) {
	for n := 0; n < r.arch.Nodes; n++ {
		r.e.CreatePhase(p, proto.NodeID(n))
	}
	for n := 0; n < r.arch.Nodes; n++ {
		r.e.CommitScan(p, proto.NodeID(n))
	}
}

// look returns the item's directory entry, failing the test when the
// item has none.
func (r *rig) look(item proto.ItemID) directory.Entry {
	r.t.Helper()
	e, ok := r.dir.Lookup(item)
	if !ok {
		r.t.Fatalf("item %d has no directory entry", item)
	}
	return e
}

// ckPair returns the nodes holding SharedCK1 and SharedCK2 for an item.
func (r *rig) ckPair(item proto.ItemID) (ck1, ck2 proto.NodeID) {
	ck1, ck2 = proto.None, proto.None
	for n := range r.ams {
		switch r.ams[n].State(item) {
		case proto.SharedCK1:
			ck1 = proto.NodeID(n)
		case proto.SharedCK2:
			ck2 = proto.NodeID(n)
		}
	}
	return ck1, ck2
}

func TestColdReadGetsBackgroundSharedCopy(t *testing.T) {
	r := newRig(t, 16, Standard, Options{})
	var v uint64
	r.run(func(p *sim.Process) { v = r.e.ReadItem(p, 3, 100) })
	if v != 0 {
		t.Fatalf("cold value = %d", v)
	}
	// Never-written memory is initialised background: the reader gets a
	// Shared zero copy and no master exists yet.
	if st := r.ams[3].State(100); st != proto.Shared {
		t.Fatalf("state = %v, want Shared", st)
	}
	if owner := r.look(100).Owner(); owner != proto.None {
		t.Fatalf("owner = %v, want none before the first write", owner)
	}
	if !r.look(100).Sharers.Contains(3) {
		t.Fatal("background reader not tracked as sharer")
	}
	if r.counters[3].FillsCold != 1 {
		t.Fatalf("cold fills = %d", r.counters[3].FillsCold)
	}
}

func TestFirstWriteInvalidatesBackgroundReaders(t *testing.T) {
	r := newRig(t, 16, Standard, Options{})
	r.run(func(p *sim.Process) {
		r.e.ReadItem(p, 3, 100) // background Shared copies
		r.e.ReadItem(p, 7, 100)
		r.e.WriteItem(p, 1, 100, 9) // first write creates the master
		if got := r.e.ReadItem(p, 3, 100); got != 9 {
			t.Errorf("read after first write = %d, want 9", got)
		}
	})
	if owner := r.look(100).Owner(); owner != 1 {
		t.Fatalf("owner = %v, want the first writer", owner)
	}
	if st := r.ams[7].State(100); st != proto.Invalid {
		t.Fatalf("background copy at node 7 = %v, want invalidated", st)
	}
}

func TestRemoteReadSharesAndDowngrades(t *testing.T) {
	r := newRig(t, 16, Standard, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 42)
		got := r.e.ReadItem(p, 5, 100)
		if got != 42 {
			t.Errorf("remote read = %d, want 42", got)
		}
	})
	if st := r.ams[0].State(100); st != proto.MasterShared {
		t.Fatalf("owner state = %v, want MasterShared", st)
	}
	if st := r.ams[5].State(100); st != proto.Shared {
		t.Fatalf("reader state = %v, want Shared", st)
	}
	if !r.look(100).Sharers.Contains(5) {
		t.Fatal("reader not in sharing set")
	}
	if r.cache.downgrades[0] != 1 {
		t.Fatalf("owner cache downgrades = %d", r.cache.downgrades[0])
	}
	if r.counters[5].FillsRemote != 1 {
		t.Fatalf("remote fills = %d", r.counters[5].FillsRemote)
	}
}

func TestWriteInvalidatesAllCopies(t *testing.T) {
	r := newRig(t, 16, Standard, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 1)
		r.e.ReadItem(p, 1, 100)
		r.e.ReadItem(p, 2, 100)
		r.e.WriteItem(p, 3, 100, 2)
		if got := r.e.ReadItem(p, 3, 100); got != 2 {
			t.Errorf("writer read-back = %d, want 2", got)
		}
	})
	for _, n := range []proto.NodeID{0, 1, 2} {
		if st := r.ams[n].State(100); st != proto.Invalid {
			t.Fatalf("node %v state = %v, want Invalid", n, st)
		}
	}
	if st := r.ams[3].State(100); st != proto.Exclusive {
		t.Fatalf("writer state = %v", st)
	}
	if r.look(100).Owner() != 3 {
		t.Fatalf("owner = %v", r.look(100).Owner())
	}
	if got := r.look(100).Sharers.Len(); got != 0 {
		t.Fatalf("sharers = %d", got)
	}
	// Nodes 1 and 2 were invalidated; node 0's master copy was destroyed.
	if r.cache.invalidations[1] != 1 || r.cache.invalidations[2] != 1 || r.cache.invalidations[0] != 1 {
		t.Fatalf("cache invalidations = %v", r.cache.invalidations)
	}
}

func TestUpgradeFromMasterShared(t *testing.T) {
	r := newRig(t, 16, Standard, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 1)
		r.e.ReadItem(p, 1, 100)
		// Owner writes again: a local upgrade that invalidates node 1.
		r.e.WriteItem(p, 0, 100, 2)
	})
	if st := r.ams[0].State(100); st != proto.Exclusive {
		t.Fatalf("owner state = %v", st)
	}
	if st := r.ams[1].State(100); st != proto.Invalid {
		t.Fatalf("sharer state = %v", st)
	}
}

func TestTable2RemoteLatency(t *testing.T) {
	// Build the Table 2 scenario on a 4x4 mesh: home == owner, at one
	// and two hops from the requester. Expected: 108 + 8*hops.
	cases := []struct {
		requester proto.NodeID
		hops      int
		want      int64
	}{
		{1, 1, 116}, // node 1 is one hop from node 0
		{2, 2, 124}, // node 2 is two hops from node 0
	}
	for _, c := range cases {
		r := newRig(t, 16, Standard, Options{})
		// Item 0 homes at node 0 (0 % 16); make node 0 its owner, and
		// pre-touch the page from the requester so only the pure miss
		// is measured.
		r.run(func(p *sim.Process) {
			r.e.WriteItem(p, 0, 0, 7)       // node 0 owns item 0
			r.e.ReadItem(p, c.requester, 1) // allocates requester's frame (same page)
			r.e.ReadItem(p, 0, 1)           // keep node 0 the owner of item 1 only
			start := p.Now()
			if got := r.e.ReadItem(p, c.requester, 0); got != 7 {
				t.Errorf("value = %d", got)
			}
			if lat := p.Now() - start; lat != c.want {
				t.Errorf("%d-hop remote read latency = %d, want %d", c.hops, lat, c.want)
			}
		})
	}
}

func TestLocalAMFillLatency(t *testing.T) {
	r := newRig(t, 16, Standard, Options{})
	r.run(func(p *sim.Process) {
		r.e.ReadItem(p, 4, 100)
		start := p.Now()
		r.e.ReadItem(p, 4, 100) // AM hit (simulating a cache miss, AM hit)
		if lat := p.Now() - start; lat != r.arch.AMAccess {
			t.Errorf("local fill latency = %d, want %d", lat, r.arch.AMAccess)
		}
	})
}

func TestCheckpointCreatesCKPairs(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	items := []proto.ItemID{100, 101, 350}
	r.run(func(p *sim.Process) {
		for i, it := range items {
			r.e.WriteItem(p, proto.NodeID(i), it, uint64(10+i))
		}
		r.establish(p)
	})
	for i, it := range items {
		ck1, ck2 := r.ckPair(it)
		if ck1 == proto.None || ck2 == proto.None {
			t.Fatalf("item %d: CK pair = (%v,%v)", it, ck1, ck2)
		}
		if ck1 == ck2 {
			t.Fatalf("item %d: CK copies on the same node", it)
		}
		if r.ams[ck1].Slot(it).Partner != ck2 || r.ams[ck2].Slot(it).Partner != ck1 {
			t.Fatalf("item %d: partner pointers wrong", it)
		}
		if v := r.ams[ck1].Slot(it).Value; v != uint64(10+i) {
			t.Fatalf("item %d: CK1 value = %d", it, v)
		}
		if r.look(it).Owner() != ck1 {
			t.Fatalf("item %d: owner %v != CK1 %v", it, r.look(it).Owner(), ck1)
		}
	}
}

func TestCheckpointReusesSharedReplica(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.e.ReadItem(p, 7, 100) // node 7 now holds a Shared copy
		r.establish(p)
	})
	ck1, ck2 := r.ckPair(100)
	if ck1 != 0 || ck2 != 7 {
		t.Fatalf("CK pair = (%v,%v), want (0,7): the Shared copy must be reused", ck1, ck2)
	}
	if r.counters[0].CkptItemsReused != 1 {
		t.Fatalf("reused = %d, want 1", r.counters[0].CkptItemsReused)
	}
	if r.counters[0].CkptItemsReplicated != 0 {
		t.Fatalf("replicated = %d, want 0 (no data transfer)", r.counters[0].CkptItemsReplicated)
	}
	if r.look(100).Sharers.Contains(7) {
		t.Fatal("upgraded sharer still in sharing set")
	}
}

func TestNoReplicationReuseAblation(t *testing.T) {
	r := newRig(t, 16, ECP, Options{NoReplicationReuse: true})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.e.ReadItem(p, 7, 100)
		r.establish(p)
	})
	if r.counters[0].CkptItemsReused != 0 {
		t.Fatal("ablation still reused a replica")
	}
	if r.counters[0].CkptItemsReplicated != 1 {
		t.Fatalf("replicated = %d, want 1", r.counters[0].CkptItemsReplicated)
	}
}

func TestWriteAfterCheckpointDowngradesCKToInvCK(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.establish(p)
		r.e.WriteItem(p, 9, 100, 6)
		if got := r.e.ReadItem(p, 9, 100); got != 6 {
			t.Errorf("read-back = %d", got)
		}
	})
	// The two CK copies must survive as Inv-CK.
	inv1, inv2 := proto.None, proto.None
	for n := range r.ams {
		switch r.ams[n].State(100) {
		case proto.InvCK1:
			inv1 = proto.NodeID(n)
		case proto.InvCK2:
			inv2 = proto.NodeID(n)
		}
	}
	if inv1 == proto.None || inv2 == proto.None || inv1 == inv2 {
		t.Fatalf("Inv-CK pair = (%v,%v)", inv1, inv2)
	}
	if v := r.ams[inv1].Slot(100).Value; v != 5 {
		t.Fatalf("recovery value = %d, want the pre-write 5", v)
	}
	if st := r.ams[9].State(100); st != proto.Exclusive {
		t.Fatalf("writer state = %v", st)
	}
}

func TestSharedCKServesLocalReads(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.establish(p)
		start := p.Now()
		if got := r.e.ReadItem(p, 0, 100); got != 5 {
			t.Errorf("read = %d", got)
		}
		if lat := p.Now() - start; lat != r.arch.AMAccess {
			t.Errorf("Shared-CK local read latency = %d, want %d (a hit)", lat, r.arch.AMAccess)
		}
	})
	if r.counters[0].SharedCKReads != 1 {
		t.Fatalf("SharedCKReads = %d", r.counters[0].SharedCKReads)
	}
	if n := r.counters[0].InjectionsOnReads(); n != 0 {
		t.Fatalf("a read of a local Shared-CK copy caused %d injections", n)
	}
}

func TestNoSharedCKReadsAblation(t *testing.T) {
	r := newRig(t, 16, ECP, Options{NoSharedCKReads: true})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.establish(p)
		if got := r.e.ReadItem(p, 0, 100); got != 5 {
			t.Errorf("read = %d", got)
		}
	})
	if r.counters[0].SharedCKReads != 0 {
		t.Fatal("ablation still served from Shared-CK")
	}
	if r.counters[0].Injections[proto.InjectReadInvCK] != 1 {
		t.Fatalf("injections = %v, want the CK copy pushed out", r.counters[0].Injections)
	}
}

func TestWriteOnLocalSharedCKInjectsFirst(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.establish(p)
		// Node 0 holds SharedCK1; its processor writes the item again.
		r.e.WriteItem(p, 0, 100, 6)
		if got := r.e.ReadItem(p, 0, 100); got != 6 {
			t.Errorf("read-back = %d", got)
		}
	})
	if r.counters[0].Injections[proto.InjectWriteSharedCK] != 1 {
		t.Fatalf("write-on-SharedCK injections = %d, want 1",
			r.counters[0].Injections[proto.InjectWriteSharedCK])
	}
	if st := r.ams[0].State(100); st != proto.Exclusive {
		t.Fatalf("writer state = %v", st)
	}
	// The recovery pair must survive as Inv-CK on two other nodes.
	inv := 0
	for n := range r.ams {
		st := r.ams[n].State(100)
		if st == proto.InvCK1 || st == proto.InvCK2 {
			inv++
			if v := r.ams[n].Slot(100).Value; v != 5 {
				t.Fatalf("recovery value = %d, want 5", v)
			}
		}
	}
	if inv != 2 {
		t.Fatalf("Inv-CK copies = %d, want 2", inv)
	}
}

func TestReadOnLocalInvCKInjectsFirst(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.establish(p)
		r.e.WriteItem(p, 9, 100, 6) // CK pair becomes Inv-CK; node 0 holds InvCK1
		if st := r.ams[0].State(100); st != proto.InvCK1 {
			t.Fatalf("node 0 state = %v, want InvCK1", st)
		}
		if got := r.e.ReadItem(p, 0, 100); got != 6 {
			t.Errorf("read = %d, want current 6", got)
		}
	})
	if r.counters[0].Injections[proto.InjectReadInvCK] != 1 {
		t.Fatalf("read-on-InvCK injections = %d, want 1",
			r.counters[0].Injections[proto.InjectReadInvCK])
	}
	if st := r.ams[0].State(100); st != proto.Shared {
		t.Fatalf("node 0 state = %v, want Shared", st)
	}
	// The InvCK1 copy moved somewhere else intact.
	inv := 0
	for n := range r.ams {
		st := r.ams[n].State(100)
		if st == proto.InvCK1 || st == proto.InvCK2 {
			inv++
		}
	}
	if inv != 2 {
		t.Fatalf("Inv-CK copies = %d, want 2 after the move", inv)
	}
}

func TestRecoveryRestoresCommittedState(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.e.WriteItem(p, 1, 101, 7)
		r.establish(p)
		// Post-checkpoint activity to be rolled back.
		r.e.WriteItem(p, 2, 100, 99)
		r.e.WriteItem(p, 3, 200, 55) // brand new item, never checkpointed
		r.e.ReadItem(p, 4, 101)
		// Rollback.
		for n := 0; n < 16; n++ {
			r.e.RecoveryScan(p, proto.NodeID(n))
		}
		dropped := r.e.RebuildDirectory()
		if len(dropped) != 1 || dropped[0] != 200 {
			t.Errorf("dropped = %v, want [200]", dropped)
		}
	})
	for _, c := range []struct {
		item proto.ItemID
		want uint64
	}{{100, 5}, {101, 7}} {
		ck1, ck2 := r.ckPair(c.item)
		if ck1 == proto.None || ck2 == proto.None {
			t.Fatalf("item %d: CK pair missing after recovery", c.item)
		}
		if v := r.ams[ck1].Slot(c.item).Value; v != c.want {
			t.Fatalf("item %d: restored value = %d, want %d", c.item, v, c.want)
		}
		if r.look(c.item).Owner() != ck1 {
			t.Fatalf("item %d: owner not rebuilt to CK1", c.item)
		}
		if r.look(c.item).Sharers.Len() != 0 {
			t.Fatalf("item %d: sharers not cleared", c.item)
		}
	}
	if _, ok := r.dir.Lookup(200); ok {
		t.Fatal("never-checkpointed item survived recovery")
	}
	// No current copies anywhere.
	for n := range r.ams {
		counts := r.ams[n].StateCounts()
		if counts[proto.Shared]+counts[proto.Exclusive]+counts[proto.MasterShared]+
			counts[proto.PreCommit1]+counts[proto.PreCommit2] != 0 {
			t.Fatalf("node %d still holds current copies: %v", n, counts)
		}
	}
	// The machine must be usable after recovery: re-read and re-write.
	r.run(func(p *sim.Process) {
		if got := r.e.ReadItem(p, 8, 100); got != 5 {
			t.Errorf("post-recovery read = %d, want 5", got)
		}
		r.e.WriteItem(p, 8, 100, 123)
		if got := r.e.ReadItem(p, 8, 100); got != 123 {
			t.Errorf("post-recovery write lost: %d", got)
		}
	})
}

func TestReconfigureAfterPermanentFailure(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	var deadNode proto.NodeID
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.e.WriteItem(p, 1, 101, 7)
		r.establish(p)
		// Pick the node holding item 100's CK1 as the casualty.
		ck1, _ := r.ckPair(100)
		deadNode = ck1
		r.net.SetDown(deadNode, true)
		r.ams[deadNode].Clear()
		r.dir.SetAlive(deadNode, false)
		for n := 0; n < 16; n++ {
			if proto.NodeID(n) == deadNode {
				continue
			}
			r.e.RecoveryScan(p, proto.NodeID(n))
		}
		r.e.RebuildDirectory()
		dead := func(n proto.NodeID) bool { return n == deadNode }
		r.e.RemapAnchors(p, dead)
		total := 0
		for _, n := range r.dir.AliveNodes() {
			total += r.e.ReconfigureNode(p, n, dead)
		}
		if total == 0 {
			t.Error("reconfiguration re-created no copies")
		}
	})
	for _, c := range []struct {
		item proto.ItemID
		want uint64
	}{{100, 5}, {101, 7}} {
		ck1, ck2 := r.ckPair(c.item)
		if ck1 == proto.None || ck2 == proto.None || ck1 == ck2 {
			t.Fatalf("item %d: CK pair = (%v,%v) after reconfiguration", c.item, ck1, ck2)
		}
		if ck1 == deadNode || ck2 == deadNode {
			t.Fatalf("item %d: CK copy on the dead node", c.item)
		}
		if v := r.ams[ck1].Slot(c.item).Value; v != c.want {
			t.Fatalf("item %d: value = %d, want %d", c.item, v, c.want)
		}
	}
	// The machine keeps working without the dead node.
	r.run(func(p *sim.Process) {
		if got := r.e.ReadItem(p, (deadNode+1)%16, 100); got != 5 {
			t.Errorf("post-reconfiguration read = %d, want 5", got)
		}
		r.e.WriteItem(p, (deadNode+2)%16, 100, 77)
	})
}

func TestAnchorFramesReserved(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	r.run(func(p *sim.Process) { r.e.WriteItem(p, 5, 100, 1) })
	// Four anchors: the first toucher and its three ring successors.
	page := r.arch.PageOf(100)
	pinned := 0
	for n := range r.ams {
		if r.ams[n].Irreplaceable(page) {
			pinned++
		}
	}
	if pinned != 4 {
		t.Fatalf("irreplaceable frames = %d, want 4", pinned)
	}
	if !r.ams[5].Irreplaceable(page) {
		t.Fatal("first toucher's frame not pinned")
	}
}

func TestStandardProtocolSingleAnchor(t *testing.T) {
	r := newRig(t, 16, Standard, Options{})
	r.run(func(p *sim.Process) { r.e.WriteItem(p, 5, 100, 1) })
	page := r.arch.PageOf(100)
	pinned := 0
	for n := range r.ams {
		if r.ams[n].Irreplaceable(page) {
			pinned++
		}
	}
	if pinned != 1 {
		t.Fatalf("irreplaceable frames = %d, want 1 (KSR1-style)", pinned)
	}
}

func TestInjectionRingSkipsOccupiedSlots(t *testing.T) {
	r := newRig(t, 16, ECP, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, 0, 100, 5)
		r.establish(p)
		// Node 0 holds SharedCK1; its ring successor (node 1) holds the
		// CK2 copy or not — find the partner and make sure an injection
		// from the partner's predecessor cannot land on a CK holder.
		ck1, ck2 := r.ckPair(100)
		if ck1 != 0 {
			t.Fatalf("ck1 = %v", ck1)
		}
		// Force node 0 to push out its CK1 (write on Shared-CK): the
		// ring walk starts at node 1. Wherever it lands, it must not be
		// a node already holding a copy of item 100.
		r.e.WriteItem(p, 0, 100, 6)
		newCK1 := proto.None
		for n := range r.ams {
			if r.ams[n].State(100) == proto.InvCK1 {
				newCK1 = proto.NodeID(n)
			}
		}
		if newCK1 == proto.None {
			t.Fatal("CK1 copy lost")
		}
		if newCK1 == ck2 {
			t.Fatal("CK1 landed on the CK2 holder")
		}
	})
}

func TestConcurrentTransactionsSerialisePerItem(t *testing.T) {
	r := newRig(t, 16, Standard, Options{})
	const writers = 8
	values := make(map[uint64]bool)
	done := 0
	for i := 0; i < writers; i++ {
		i := i
		r.eng.Spawn("writer", func(p *sim.Process) {
			r.e.WriteItem(p, proto.NodeID(i), 100, uint64(i+1))
			done++
		})
	}
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != writers {
		t.Fatalf("completed = %d", done)
	}
	// Exactly one exclusive copy must remain.
	owners := 0
	for n := range r.ams {
		st := r.ams[n].State(100)
		if st == proto.Exclusive || st == proto.MasterShared {
			owners++
			values[r.ams[n].Slot(100).Value] = true
		}
	}
	if owners != 1 {
		t.Fatalf("owners = %d, want 1", owners)
	}
	if r.e.LockedItems() != 0 {
		t.Fatal("locks leaked")
	}
}
