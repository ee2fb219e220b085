package sim

import (
	"slices"
	"testing"
)

// refQueue is a deliberately naive priority queue ordered by (time, seq):
// the reference model the timing wheel must match event for event.
type refQueue struct{ a []event }

func (r *refQueue) len() int { return len(r.a) }

func (r *refQueue) push(ev event) { r.a = append(r.a, ev) }

func (r *refQueue) pop() event {
	best := 0
	for i := 1; i < len(r.a); i++ {
		if r.a[i].time < r.a[best].time ||
			(r.a[i].time == r.a[best].time && r.a[i].seq < r.a[best].seq) {
			best = i
		}
	}
	ev := r.a[best]
	r.a = append(r.a[:best], r.a[best+1:]...)
	return ev
}

// TestWheelMatchesReference drives the timing wheel and the reference
// queue with identical random interleaved push/pop schedules — spanning
// same-cycle bursts, window-edge times and far-future overflow — and
// requires bit-identical (time, seq) pop sequences.
func TestWheelMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := NewRNG(seed)
		var q eventQueue
		var ref refQueue
		var now, seq int64
		for op := 0; op < 4000; op++ {
			if q.len() != ref.len() {
				t.Fatalf("seed %d: len mismatch wheel=%d ref=%d", seed, q.len(), ref.len())
			}
			if q.len() == 0 || r.Int63n(2) == 0 {
				for n := 1 + r.Int63n(4); n > 0; n-- {
					var span int64
					switch r.Int63n(4) {
					case 0:
						span = 1 // same cycle / next cycle
					case 1:
						span = 8 // hot near-future traffic
					case 2:
						span = wheelSize + 2 // straddles the window edge
					default:
						span = wheelSize * 64 // deep overflow
					}
					seq++
					ev := event{time: now + r.Int63n(span), seq: seq}
					q.push(ev)
					ref.push(ev)
				}
				continue
			}
			got, want := q.pop(), ref.pop()
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("seed %d op %d: wheel popped (t=%d, seq=%d), reference (t=%d, seq=%d)",
					seed, op, got.time, got.seq, want.time, want.seq)
			}
			now = got.time
		}
		for q.len() > 0 {
			got, want := q.pop(), ref.pop()
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("seed %d drain: wheel popped (t=%d, seq=%d), reference (t=%d, seq=%d)",
					seed, got.time, got.seq, want.time, want.seq)
			}
		}
		if ref.len() != 0 {
			t.Fatalf("seed %d: reference still has %d events", seed, ref.len())
		}
	}
}

// TestWheelOverflowMigration pins the overflow invariant directly: an
// event parked in the far-future heap migrates into its slot the moment
// the window slides over it, and a later direct insert at the same time
// still dispatches after it (the migrated event has the older seq).
func TestWheelOverflowMigration(t *testing.T) {
	var q eventQueue
	q.push(event{time: wheelSize + 10, seq: 1}) // beyond the window: overflow
	if q.overflow.len() != 1 {
		t.Fatalf("far event not in overflow (len=%d)", q.overflow.len())
	}
	q.push(event{time: 11, seq: 2})
	if ev := q.pop(); ev.seq != 2 {
		t.Fatalf("popped seq %d, want the near event (seq 2)", ev.seq)
	}
	// base is now 11, so wheelSize+10 is inside the window: it must have
	// migrated out of the heap before any same-time direct insert.
	if q.overflow.len() != 0 {
		t.Fatalf("overflow event did not migrate on window advance")
	}
	q.push(event{time: wheelSize + 10, seq: 3}) // same time, direct insert
	if ev := q.pop(); ev.seq != 1 {
		t.Fatalf("popped seq %d first, want migrated overflow event (seq 1)", ev.seq)
	}
	if ev := q.pop(); ev.seq != 3 {
		t.Fatalf("popped seq %d second, want direct insert (seq 3)", ev.seq)
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after draining")
	}
}

// TestWheelEmptyWindowJump covers the pop path where the wheel is empty
// and base must jump straight to the overflow front.
func TestWheelEmptyWindowJump(t *testing.T) {
	var q eventQueue
	times := []int64{wheelSize * 5, wheelSize * 3, wheelSize*5 + 1, wheelSize * 9}
	for i, tm := range times {
		q.push(event{time: tm, seq: int64(i + 1)})
	}
	want := slices.Clone(times)
	slices.Sort(want)
	for i, w := range want {
		if ev := q.pop(); ev.time != w {
			t.Fatalf("pop %d: time %d, want %d", i, ev.time, w)
		}
	}
}

// TestEngineRandomScheduleOrder exercises the full kernel dispatch loop
// against a shadow model; see checkEngineScheduleOrder.
func TestEngineRandomScheduleOrder(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		checkEngineScheduleOrder(t, seed)
	}
}

// FuzzEngineScheduleOrder searches generator seeds for a dispatch order
// that departs from the shadow model.
func FuzzEngineScheduleOrder(f *testing.F) {
	for seed := uint64(1); seed <= 25; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkEngineScheduleOrder(t, seed) })
}

// checkEngineScheduleOrder drives the engine with a random workload
// drawn from seed and mirrors every schedule call — At, Spawn, Wait and
// WakeNow each consume exactly one engine seq — with its (time, seq)
// into a shadow list. Sink events schedule children mid-dispatch (same
// cycle, near future, far future), spawn processes and wake parked
// ones; processes Wait over the same spread of delays, Park, schedule
// sink events and end. Each sink event and each process resume records the
// shadow entry of the event that caused it; runs proceed in random
// RunUntil chunks with occasional Stop calls, and the observed order
// must equal the shadow list sorted by (time, seq). A final Shutdown
// reaps the processes left parked.
func checkEngineScheduleOrder(t testing.TB, seed uint64) {
	r := NewRNG(seed)
	e := New()
	type item struct {
		time int64
		seq  int64
		id   int
	}
	var want []item
	var got []int
	var shadowSeq int64
	expect := func(at int64) int {
		shadowSeq++
		want = append(want, item{time: at, seq: shadowSeq, id: len(want)})
		return len(want) - 1
	}
	full := func() bool { return len(want) >= 3000 }
	later := func() int64 {
		switch r.Int63n(4) {
		case 0:
			return 0 // same cycle
		case 1:
			return 1 + r.Int63n(16)
		case 2:
			return 1 + r.Int63n(wheelSize)
		default:
			return wheelSize + r.Int63n(1<<20)
		}
	}
	// A proc's wake is the shadow id of its pending start or wake event;
	// parked holds the processes blocked in Park with none pending.
	type proc struct {
		p    *Process
		wake int
	}
	var parked []*proc
	var add func(at int64)
	spawn := func() {
		pr := &proc{wake: expect(e.Now())}
		pr.p = e.Spawn("p", func(p *Process) {
			for {
				got = append(got, pr.wake)
				if full() {
					return
				}
				if r.Int63n(3) == 0 {
					add(e.Now() + later())
				}
				switch r.Int63n(6) {
				case 0:
					return
				case 1:
					parked = append(parked, pr)
					p.Park()
				default:
					d := later()
					pr.wake = expect(e.Now() + d)
					p.Wait(d)
				}
			}
		})
	}
	add = func(at int64) {
		id := expect(at)
		atFn(e, at, func() {
			got = append(got, id)
			if full() {
				return
			}
			for n := r.Int63n(3); n > 0; n-- {
				add(e.Now() + later())
			}
			switch r.Int63n(6) {
			case 0:
				spawn() // mid-dispatch
			case 1:
				if len(parked) > 0 {
					k := r.Int63n(int64(len(parked)))
					pr := parked[k]
					parked = slices.Delete(parked, int(k), int(k)+1)
					pr.wake = expect(e.Now())
					e.WakeNow(pr.p)
				}
			}
			if r.Int63n(40) == 0 {
				e.Stop()
			}
		})
	}
	for i := 0; i < 40; i++ {
		add(r.Int63n(1 << 14))
	}
	spawn()
	for rounds := 0; len(got) < len(want); rounds++ {
		if rounds > 10_000 {
			t.Fatalf("seed %d: engine failed to drain (%d/%d dispatched)", seed, len(got), len(want))
		}
		if _, err := e.RunUntil(e.Now() + r.Int63n(1<<16)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if len(got) != len(want) || e.Events() != int64(len(want)) {
		t.Fatalf("seed %d: %d dispatches observed, %d events, %d scheduled", seed, len(got), e.Events(), len(want))
	}
	order := slices.Clone(want)
	slices.SortFunc(order, func(a, b item) int {
		if a.time != b.time {
			return int(a.time - b.time)
		}
		return int(a.seq - b.seq)
	})
	for i, it := range order {
		if got[i] != it.id {
			t.Fatalf("seed %d: dispatch %d was event %d, want %d (t=%d seq=%d)",
				seed, i, got[i], it.id, it.time, it.seq)
		}
	}
	// Every process still live is parked with no wake pending.
	if e.Processes() != len(parked) {
		t.Fatalf("seed %d: %d live processes, %d parked", seed, e.Processes(), len(parked))
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("seed %d: %d processes live after Shutdown", seed, e.Processes())
	}
}

// nopSink is an EventSink that does nothing.
type nopSink struct{}

func (nopSink) OnEvent(*Engine, int64) {}

// poolWatch checks, at every safe point of its engine, that the wheel
// pool holds no more entries than the peak number of pending wheel
// events seen so far.
type poolWatch struct {
	t    *testing.T
	e    *Engine
	peak int
}

func newPoolWatch(t *testing.T) *poolWatch {
	w := &poolWatch{t: t, e: New()}
	w.e.SetSafePointHook(w.check)
	return w
}

func (w *poolWatch) check(int64) {
	q := &w.e.queue
	w.peak = max(w.peak, q.count)
	if len(q.pool) > w.peak {
		w.t.Fatalf("pool holds %d events, peak pending %d", len(q.pool), w.peak)
	}
}

// burst schedules perSlot sink events into each wheel slot and runs
// them.
func (w *poolWatch) burst() {
	const perSlot = 8
	e := w.e
	base := e.Now()
	for s := int64(0); s < wheelSize; s++ {
		for k := 0; k < perSlot; k++ {
			e.At(base+s, nopSink{}, 0)
		}
	}
	w.check(e.Now())
	if _, err := e.Run(); err != nil {
		w.t.Fatal(err)
	}
	if n := e.Events(); n%(perSlot*wheelSize) != 0 {
		w.t.Fatalf("dispatched %d events, want whole bursts of %d", n, perSlot*wheelSize)
	}
}

// TestWheelPoolAllocs: wheel events live in one pool, so a fresh engine
// that fills every slot eight deep grows that pool a few times instead
// of one backing array per slot, a second burst on the same engine
// allocates nothing, and the pool never holds more entries than the
// peak number of pending wheel events.
func TestWheelPoolAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(1, func() { newPoolWatch(t).burst() }); a > 32 {
		t.Fatalf("fresh engine burst allocates %.0f times, want at most 32", a)
	}
	w := newPoolWatch(t)
	w.burst()
	if a := testing.AllocsPerRun(1, w.burst); a != 0 {
		t.Fatalf("second burst allocates %.0f times, want 0", a)
	}
}

// TestShutdownKillsInSpawnOrder is the regression test for the Shutdown
// rewrite: processes must observe the kill in ascending process-id
// (spawn) order, and the unwind must reap every goroutine.
func TestShutdownKillsInSpawnOrder(t *testing.T) {
	e := New()
	const n = 150
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("parked", func(p *Process) {
			defer func() { order = append(order, i) }()
			p.Park() // parked forever; only Shutdown wakes it
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if len(order) != n {
		t.Fatalf("reaped %d processes, want %d", len(order), n)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("kill %d hit process %d; want ascending spawn order", i, id)
		}
	}
	if e.Processes() != 0 {
		t.Fatalf("%d processes still live after Shutdown", e.Processes())
	}
}
