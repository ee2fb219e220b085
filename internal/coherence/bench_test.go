package coherence

import (
	"testing"

	"coma/internal/proto"
	"coma/internal/sim"
)

// missItem's home is node 4 of 16, so neither node of the loops below is
// its home and every miss takes the three-hop path: requester to home,
// home forwards to the owner, owner replies to the requester.
const missItem proto.ItemID = 100

// missLoop is a process body running one step of a remote coherence
// transaction on a 16-node ECP rig, with the processors idle between
// steps. A write step is an ownership ping-pong: node 1 and node 2 take
// turns writing the item, so every write misses and fetches it from the
// other node, which invalidates its copy. A read step is a read miss at
// node 1 served by owner node 2, followed by node 2's write upgrade that
// invalidates node 1's copy again, so the next read misses too.
type missLoop struct {
	r     *rig
	write bool
	steps int64
}

func (l *missLoop) Run(p *sim.Process, i int64) {
	if l.write {
		l.r.e.WriteItem(p, proto.NodeID(1+i%2), missItem, uint64(i))
		return
	}
	l.r.e.ReadItem(p, 1, missItem)
	l.r.e.WriteItem(p, 2, missItem, uint64(i))
}

// step spawns one loop step and runs the engine until it has finished.
func (l *missLoop) step() {
	l.steps++
	l.r.eng.SpawnBody("miss", l, l.steps)
	if _, err := l.r.eng.Run(); err != nil {
		l.r.t.Fatal(err)
	}
}

// newMissLoop builds the rig, lets node 2 create the item's master, and
// warms the engine for warm steps so the free lists, slabs and timing
// wheel slots have reached their steady size.
func newMissLoop(tb testing.TB, write bool, warm int) *missLoop {
	l := &missLoop{r: newRig(tb, 16, ECP, Options{}), write: write}
	l.r.run(func(p *sim.Process) { l.r.e.WriteItem(p, 2, missItem, 1) })
	for i := 0; i < warm; i++ {
		l.step()
	}
	return l
}

// assertMissZeroAlloc checks that a warmed miss loop allocates nothing
// per step and leaves no lock, ack collection or reply future behind.
func assertMissZeroAlloc(t *testing.T, write bool) {
	l := newMissLoop(t, write, 2000)
	before := l.r.counters[1].AMReadMisses + l.r.counters[1].AMWriteMisses
	if allocs := testing.AllocsPerRun(200, l.step); allocs != 0 {
		t.Fatalf("%v allocs per miss step, want 0", allocs)
	}
	if after := l.r.counters[1].AMReadMisses + l.r.counters[1].AMWriteMisses; after == before {
		t.Fatal("the loop did not miss at node 1")
	}
	if e := l.r.e; e.LockedItems() != 0 || e.PendingAcks() != 0 || e.PendingReplies() != 0 {
		t.Fatalf("after the loop: %d locked items, %d ack collections, %d reply futures",
			e.LockedItems(), e.PendingAcks(), e.PendingReplies())
	}
}

func TestReadMissZeroAlloc(t *testing.T)  { assertMissZeroAlloc(t, false) }
func TestWriteMissZeroAlloc(t *testing.T) { assertMissZeroAlloc(t, true) }

// BenchmarkReadMiss measures one remote read miss plus the owner's
// write upgrade that re-arms it (see missLoop).
func BenchmarkReadMiss(b *testing.B) { benchMiss(b, false) }

// BenchmarkWriteMiss measures one remote write miss with ownership
// transfer and invalidation (see missLoop).
func BenchmarkWriteMiss(b *testing.B) { benchMiss(b, true) }

func benchMiss(b *testing.B, write bool) {
	l := newMissLoop(b, write, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
}
