package core

import (
	"strings"
	"testing"

	"coma/internal/am"
	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/directory"
	"coma/internal/mesh"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
)

// nopCache satisfies coherence.CacheOps for protocol-level tests.
type nopCache struct{}

func (nopCache) InvalidateItem(proto.NodeID, proto.ItemID) {}
func (nopCache) DowngradeItem(proto.NodeID, proto.ItemID)  {}

type rig struct {
	t    *testing.T
	eng  *sim.Engine
	arch config.Arch
	net  *mesh.Network
	dir  *directory.Directory
	ams  []*am.AM
	coh  *coherence.Engine
}

func newRig(t *testing.T, nodes int) *rig {
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
	coh := coherence.New(eng, arch, coherence.ECP, coherence.Options{},
		net, dir, ams, counters, nopCache{})
	t.Cleanup(func() { eng.Shutdown() })
	return &rig{t: t, eng: eng, arch: arch, net: net, dir: dir, ams: ams, coh: coh}
}

func (r *rig) run(fn func(p *sim.Process)) {
	r.t.Helper()
	done := false
	r.eng.Spawn("test", func(p *sim.Process) { fn(p); done = true })
	if _, err := r.eng.Run(); err != nil {
		r.t.Fatal(err)
	}
	if !done {
		r.t.Fatal("test process did not complete")
	}
}

func (r *rig) establish(p *sim.Process, nodes []proto.NodeID) {
	for _, n := range nodes {
		r.coh.CreatePhase(p, n)
	}
	for _, n := range nodes {
		r.coh.CommitScan(p, n)
	}
}

func (r *rig) allNodes() []proto.NodeID {
	out := make([]proto.NodeID, r.arch.Nodes)
	for i := range out {
		out[i] = proto.NodeID(i)
	}
	return out
}

// restoredValue returns the value of the item's Shared-CK1 copy, or
// (0, false) if no committed pair exists.
func (r *rig) restoredValue(item proto.ItemID) (uint64, bool) {
	for n := range r.ams {
		if r.ams[n].State(item) == proto.SharedCK1 {
			return r.ams[n].Slot(item).Value, true
		}
	}
	return 0, false
}

// TestCreatePhaseFailureRestoresOldPoint exercises the paper's §3.3
// atomicity claim: a failure during the create phase leaves the previous
// recovery point (all Inv-CK and Shared-CK copies) intact and restorable.
func TestCreatePhaseFailureRestoresOldPoint(t *testing.T) {
	r := newRig(t, 16)
	items := []proto.ItemID{10, 140, 300, 430}
	r.run(func(p *sim.Process) {
		// Recovery point 1 with known values.
		for i, it := range items {
			r.coh.WriteItem(p, proto.NodeID(i), it, 100+uint64(i))
		}
		r.establish(p, r.allNodes())
		// Modify everything (values the failed establishment must NOT
		// expose after rollback).
		for i, it := range items {
			r.coh.WriteItem(p, proto.NodeID(i+4), it, 200+uint64(i))
		}
		// A new establishment begins but only half the nodes complete
		// their create phase before node 2 dies.
		for n := proto.NodeID(0); n < 8; n++ {
			r.coh.CreatePhase(p, n)
		}
		dead := proto.NodeID(2)
		r.ams[dead].Clear()
		r.dir.SetAlive(dead, false)
		r.net.SetDown(dead, true)
		// Abort: no commit; rollback on the survivors.
		for _, n := range r.dir.AliveNodes() {
			r.coh.RecoveryScan(p, n)
		}
		r.coh.RebuildDirectory()
		isDead := func(n proto.NodeID) bool { return n == proto.None || n == dead }
		r.coh.RemapAnchors(p, isDead)
		for _, n := range r.dir.AliveNodes() {
			r.coh.ReconfigureNode(p, n, isDead)
		}
	})
	for i, it := range items {
		v, ok := r.restoredValue(it)
		if !ok {
			t.Fatalf("item %d: no committed pair after aborted create + rollback", it)
		}
		if v != 100+uint64(i) {
			t.Fatalf("item %d: restored %d, want the old recovery point's %d", it, v, 100+uint64(i))
		}
	}
	if err := CheckQuiescent(r.coh); err != nil {
		t.Fatal(err)
	}
}

// TestCommitPhaseFailureKeepsNewPoint exercises the second §3.3 claim: a
// failure during the (local) commit phase is handled as if it happened
// after the atomic update — the new recovery point is complete and
// persistent, surviving nodes simply finish their local commits.
func TestCommitPhaseFailureKeepsNewPoint(t *testing.T) {
	r := newRig(t, 16)
	items := []proto.ItemID{10, 140, 300, 430}
	r.run(func(p *sim.Process) {
		for i, it := range items {
			r.coh.WriteItem(p, proto.NodeID(i), it, 100+uint64(i))
		}
		r.establish(p, r.allNodes())
		for i, it := range items {
			r.coh.WriteItem(p, proto.NodeID(i+4), it, 200+uint64(i))
		}
		// Full create; commit completes on half the nodes, then node 6
		// dies; the remaining nodes finish their local commits (the
		// phase needs no coordination), and rollback restores the NEW
		// point.
		for _, n := range r.allNodes() {
			r.coh.CreatePhase(p, n)
		}
		for n := proto.NodeID(0); n < 8; n++ {
			r.coh.CommitScan(p, n)
		}
		dead := proto.NodeID(6)
		r.ams[dead].Clear()
		r.dir.SetAlive(dead, false)
		r.net.SetDown(dead, true)
		for n := proto.NodeID(8); n < 16; n++ {
			if n != dead {
				r.coh.CommitScan(p, n)
			}
		}
		for _, n := range r.dir.AliveNodes() {
			r.coh.RecoveryScan(p, n)
		}
		r.coh.RebuildDirectory()
		isDead := func(n proto.NodeID) bool { return n == proto.None || n == dead }
		r.coh.RemapAnchors(p, isDead)
		for _, n := range r.dir.AliveNodes() {
			r.coh.ReconfigureNode(p, n, isDead)
		}
	})
	for i, it := range items {
		v, ok := r.restoredValue(it)
		if !ok {
			t.Fatalf("item %d: no committed pair after commit-phase failure", it)
		}
		if v != 200+uint64(i) {
			t.Fatalf("item %d: restored %d, want the new recovery point's %d", it, v, 200+uint64(i))
		}
	}
	if err := CheckQuiescent(r.coh); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantCheckerAcceptsHealthyState(t *testing.T) {
	r := newRig(t, 16)
	r.run(func(p *sim.Process) {
		r.coh.WriteItem(p, 0, 100, 1)
		r.coh.ReadItem(p, 3, 100)
		r.coh.WriteItem(p, 1, 101, 2)
		r.establish(p, r.allNodes())
		r.coh.ReadItem(p, 7, 100)
	})
	if err := CheckQuiescent(r.coh); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantCheckerCatchesDoubleOwner(t *testing.T) {
	r := newRig(t, 16)
	r.run(func(p *sim.Process) { r.coh.WriteItem(p, 0, 100, 1) })
	// Forge a second Exclusive copy.
	r.ams[5].AllocFrame(r.arch.PageOf(100), false, 0)
	r.ams[5].Set(100, am.Slot{State: proto.Exclusive, Value: 9, Partner: proto.None})
	err := CheckInvariants(r.coh)
	if err == nil || !strings.Contains(err.Error(), "owner") {
		t.Fatalf("err = %v, want double-owner violation", err)
	}
}

func TestInvariantCheckerCatchesBrokenPair(t *testing.T) {
	r := newRig(t, 16)
	r.run(func(p *sim.Process) {
		r.coh.WriteItem(p, 0, 100, 1)
		r.establish(p, r.allNodes())
	})
	// Destroy the CK2 copy behind the protocol's back.
	for n := range r.ams {
		if r.ams[n].State(100) == proto.SharedCK2 {
			r.ams[n].SetState(100, proto.Invalid)
		}
	}
	err := CheckInvariants(r.coh)
	if err == nil || !strings.Contains(err.Error(), "broken recovery pair") {
		t.Fatalf("err = %v, want broken-pair violation", err)
	}
}

func TestInvariantCheckerCatchesPartnerMismatch(t *testing.T) {
	r := newRig(t, 16)
	r.run(func(p *sim.Process) {
		r.coh.WriteItem(p, 0, 100, 1)
		r.establish(p, r.allNodes())
	})
	for n := range r.ams {
		if r.ams[n].State(100) == proto.SharedCK2 {
			r.ams[n].SetPartner(100, proto.NodeID((n+5)%16))
		}
	}
	err := CheckInvariants(r.coh)
	if err == nil || !strings.Contains(err.Error(), "partner pointer") {
		t.Fatalf("err = %v, want partner violation", err)
	}
}

func TestInvariantCheckerCatchesStrayPreCommit(t *testing.T) {
	r := newRig(t, 16)
	r.run(func(p *sim.Process) {
		r.coh.WriteItem(p, 0, 100, 1)
		// Create without commit leaves PreCommit copies.
		r.coh.CreatePhase(p, 0)
	})
	if err := CheckInvariants(r.coh); err != nil {
		t.Fatalf("mid-establishment state wrongly rejected by CheckInvariants: %v", err)
	}
	err := CheckQuiescent(r.coh)
	if err == nil || !strings.Contains(err.Error(), "outside an establishment") {
		t.Fatalf("err = %v, want stray pre-commit violation", err)
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

func TestInvariantCheckerCatchesSharerMismatch(t *testing.T) {
	r := newRig(t, 16)
	r.run(func(p *sim.Process) {
		r.coh.WriteItem(p, 0, 100, 1)
		r.coh.ReadItem(p, 3, 100)
	})
	r.look(100).Sharers.Remove(3) // forge: node 3 still holds Shared
	err := CheckInvariants(r.coh)
	if err == nil || !strings.Contains(err.Error(), "sharing set") {
		t.Fatalf("err = %v, want sharing-set violation", err)
	}
}

func TestInvariantCheckerNamesPhantomSharer(t *testing.T) {
	r := newRig(t, 16)
	r.run(func(p *sim.Process) {
		r.coh.WriteItem(p, 0, 100, 1)
		r.coh.ReadItem(p, 3, 100)
	})
	r.look(100).Sharers.Add(9) // forge: node 9 holds no copy at all
	err := CheckInvariants(r.coh)
	if err == nil || !strings.Contains(err.Error(), "holds no Shared copy") ||
		!strings.Contains(err.Error(), "9") {
		t.Fatalf("err = %v, want phantom-sharer violation naming node 9", err)
	}
}

// TestInvariantCheckerWalksTheDirectory: the AM scans visit written
// items only, so an owner or sharer the directory names for an item that
// no node holds must be caught from the directory side.
func TestInvariantCheckerWalksTheDirectory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(e directory.Entry)
		want  string
	}{
		{"owner", func(e directory.Entry) { e.SetOwner(7) }, "directory owner n7 holds no owner copy"},
		{"sharer", func(e directory.Entry) { e.Sharers.Add(9) }, "node n9 is in the sharing set but holds no Shared copy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 16)
			r.run(func(p *sim.Process) { r.coh.WriteItem(p, 0, 100, 1) })
			// Item 5000 lies on a page no node has allocated.
			tc.forge(r.dir.Ensure(5000))
			err := CheckInvariants(r.coh)
			if err == nil || !strings.Contains(err.Error(), "item 5000") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q for item 5000", err, tc.want)
			}
		})
	}
}

func TestReconfigureCountsRepairs(t *testing.T) {
	r := newRig(t, 16)
	var repaired int
	r.run(func(p *sim.Process) {
		for i := 0; i < 6; i++ {
			r.coh.WriteItem(p, proto.NodeID(i), proto.ItemID(100+i), uint64(i))
		}
		r.establish(p, r.allNodes())
		dead := proto.NodeID(1)
		r.ams[dead].Clear()
		r.dir.SetAlive(dead, false)
		for _, n := range r.dir.AliveNodes() {
			r.coh.RecoveryScan(p, n)
		}
		r.coh.RebuildDirectory()
		isDead := func(n proto.NodeID) bool { return n == proto.None || n == dead }
		r.coh.RemapAnchors(p, isDead)
		for _, n := range r.dir.AliveNodes() {
			repaired += r.coh.ReconfigureNode(p, n, isDead)
		}
	})
	if repaired == 0 {
		t.Fatal("nothing repaired although the dead node held recovery copies")
	}
	if err := CheckQuiescent(r.coh); err != nil {
		t.Fatal(err)
	}
}
