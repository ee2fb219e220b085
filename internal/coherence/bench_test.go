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

// missLoop runs steps of a remote coherence transaction on a 16-node
// ECP rig, one step per wake of its process, with the processors idle
// between steps. A write step is an ownership ping-pong: node 1 and
// node 2 take turns writing the item, so every write misses and fetches
// it from the other node, which invalidates its copy. A read step is a
// read miss at node 1 served by owner node 2, followed by node 2's write
// upgrade that invalidates node 1's copy again, so the next read misses
// too.
type missLoop struct {
	r     *rig
	write bool
	steps int64
	proc  *sim.Process
}

// run is the loop's process: it parks until step wakes it, then runs
// step number l.steps.
func (l *missLoop) run(p *sim.Process) {
	for {
		p.Park()
		i := l.steps
		if l.write {
			l.r.e.WriteItem(p, proto.NodeID(1+i%2), missItem, uint64(i))
			continue
		}
		l.r.e.ReadItem(p, 1, missItem)
		l.r.e.WriteItem(p, 2, missItem, uint64(i))
	}
}

// step wakes the loop's process for one step and runs the engine until
// the step has finished.
func (l *missLoop) step() {
	l.steps++
	l.r.eng.WakeNow(l.proc)
	if _, err := l.r.eng.Run(); err != nil {
		l.r.t.Fatal(err)
	}
}

// newMissLoop builds the rig, lets node 2 create the item's master,
// starts the loop's process, and warms the engine for warm steps so the
// free lists, slabs and timing wheel slots have reached their steady
// size.
func newMissLoop(tb testing.TB, write bool, warm int) *missLoop {
	l := &missLoop{r: newRig(tb, 16, ECP, Options{}), write: write}
	l.r.run(func(p *sim.Process) { l.r.e.WriteItem(p, 2, missItem, 1) })
	l.proc = l.r.eng.Spawn("miss", l.run)
	if _, err := l.r.eng.Run(); err != nil { // the process parks
		tb.Fatal(err)
	}
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
