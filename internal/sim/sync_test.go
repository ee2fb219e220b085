package sim

import (
	"testing"
	"testing/quick"
)

func TestFutureCompleteThenAwait(t *testing.T) {
	e := New()
	f := NewFuture[string]()
	var got string
	atFn(e, 5, func() { f.Complete(e, "hello") })
	e.Spawn("late", func(p *Process) {
		p.Wait(10)
		got = f.Await(p) // already done: immediate
		if p.Now() != 10 {
			t.Errorf("await of done future advanced time to %d", p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureWakesAllWaiters(t *testing.T) {
	e := New()
	f := NewFuture[int]()
	woken := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Process) {
			v := f.Await(p)
			if v != 99 {
				t.Errorf("value = %d", v)
			}
			if p.Now() != 7 {
				t.Errorf("woken at %d, want 7", p.Now())
			}
			woken++
		})
	}
	atFn(e, 7, func() { f.Complete(e, 99) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := New()
	f := NewFuture[int]()
	f.Complete(e, 1)
	defer func() {
		if recover() == nil {
			t.Error("double complete did not panic")
		}
	}()
	f.Complete(e, 2)
}

func TestFutureResetPanicsUnlessCompleted(t *testing.T) {
	mustPanic := func(name string, f *Future[int]) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Reset of a %s future did not panic", name)
			}
		}()
		f.Reset()
	}
	mustPanic("pending", NewFuture[int]())

	// A future with a blocked waiter: the process parks in Await and
	// the run ends with it still waiting.
	e := New()
	waited := NewFuture[int]()
	e.Spawn("waiter", func(p *Process) { waited.Await(p) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanic("waited", waited)
	e.Shutdown()

	done := NewFuture[int]()
	done.Complete(e, 7)
	done.Reset()
	if done.Done() {
		t.Fatal("Reset left the future done")
	}
}

// TestReusedFutureKeepsFIFOWakeOrder completes a future, resets it and
// awaits it again with several waiters: the second round must wake
// them in arrival order, the inline first waiter included.
func TestReusedFutureKeepsFIFOWakeOrder(t *testing.T) {
	e := New()
	var pool FuturePool[int]
	f := pool.Get()
	var order []int
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			e.Spawn("w", func(p *Process) {
				p.Wait(int64(i)) // arrive in index order
				if v := f.Await(p); v != round {
					t.Errorf("round %d: waiter %d got %d", round, i, v)
				}
				order = append(order, round*10+i)
			})
		}
		afterFn(e, 10, func() { f.Complete(e, round) })
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		pool.Put(f)
		if g := pool.Get(); g != f {
			t.Fatal("pool did not hand back the returned future")
		}
	}
	want := []int{0, 1, 2, 3, 10, 11, 12, 13}
	if len(order) != len(want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestFuturePoolRoundTripZeroAlloc(t *testing.T) {
	e := New()
	var pool FuturePool[int]
	pool.Put(completed(e, pool.Get())) // warm the free list
	allocs := testing.AllocsPerRun(100, func() {
		pool.Put(completed(e, pool.Get()))
	})
	if allocs != 0 {
		t.Fatalf("Get/Complete/Put = %v allocs/op, want 0", allocs)
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after balanced Get/Put", pool.Outstanding())
	}
	f := pool.Get()
	if f.Done() || pool.Outstanding() != 1 {
		t.Fatalf("Get returned done=%v, outstanding %d", f.Done(), pool.Outstanding())
	}
}

func completed(e *Engine, f *Future[int]) *Future[int] {
	f.Complete(e, 1)
	return f
}

func TestResourceSerialisesFIFO(t *testing.T) {
	e := New()
	r := NewResource("unit", 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("u", func(p *Process) {
			p.Wait(int64(i)) // stagger arrivals: 0, 1, 2
			r.Acquire(p)
			order = append(order, i)
			p.Wait(10)
			r.Release(e)
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("service order %v, want [0 1 2]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("end = %d, want 30 (fully serialised)", e.Now())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := New()
	r := NewResource("pair", 2)
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Process) { r.Use(p, 10) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 20 {
		t.Fatalf("end = %d, want 20 (two waves of two)", e.Now())
	}
	if got := r.BusyCycles(e); got != 40 {
		t.Fatalf("busy cycles = %d, want 40", got)
	}
}

// holdSink is an event-context Resource user: each arg is one waiter,
// which takes a server with AcquireSink, holds it for one cycle and
// releases it. Its events alternate between a grant and the end of a
// hold.
type holdSink struct {
	r       *Resource
	held    []bool
	onGrant func(arg int64) // nil: record nothing
}

func (h *holdSink) acquire(e *Engine, arg int64) {
	if h.r.AcquireSink(e, h, arg) {
		h.grant(e, arg)
	}
}

func (h *holdSink) grant(e *Engine, arg int64) {
	h.held[arg] = true
	if h.onGrant != nil {
		h.onGrant(arg)
	}
	e.After(1, h, arg)
}

func (h *holdSink) OnEvent(e *Engine, arg int64) {
	if h.held[arg] {
		h.held[arg] = false
		h.r.Release(e)
		return
	}
	h.grant(e, arg) // Release handed the server over
}

// TestResourceFIFOAcrossProcessesAndSinks: processes blocked in Acquire
// and sinks queued by AcquireSink wait in one FIFO, so the server goes
// to them in arrival order whatever their kind, each at the time the
// previous holder releases it.
func TestResourceFIFOAcrossProcessesAndSinks(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		// arrivals has one waiter per cycle from cycle 1 on: 'p' a
		// process, 's' a sink. Holders keep every server until cycle 10.
		arrivals string
	}{
		{"processes", 1, "ppp"},
		{"sinks", 1, "sss"},
		{"alternating", 1, "psps"},
		{"sinks first", 1, "sspp"},
		{"processes first", 1, "ppss"},
		{"two servers", 2, "pspssp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			r := NewResource("r", tc.capacity)
			for i := 0; i < tc.capacity; i++ {
				e.Spawn("holder", func(p *Process) { r.Use(p, 10) })
			}
			var order []int
			var at []int64
			granted := func(i int) {
				order = append(order, i)
				at = append(at, e.Now())
			}
			h := &holdSink{r: r, held: make([]bool, len(tc.arrivals))}
			h.onGrant = func(arg int64) { granted(int(arg)) }
			for i, kind := range tc.arrivals {
				arrive := int64(i + 1)
				if kind == 's' {
					atFn(e, arrive, func() { h.acquire(e, int64(i)) })
					continue
				}
				e.Spawn("waiter", func(p *Process) {
					p.Wait(arrive)
					r.Acquire(p)
					granted(i)
					p.Wait(1)
					r.Release(e)
				})
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			for i := range tc.arrivals {
				want := 10 + int64(i/tc.capacity)
				if i >= len(order) || order[i] != i || at[i] != want {
					t.Fatalf("grants %v at %v, want waiter %d at cycle %d", order, at, i, want)
				}
			}
			if len(order) != len(tc.arrivals) || r.InUse() != 0 || r.QueueLen() != 0 {
				t.Fatalf("%d grants, %d in use, %d queued after the run",
					len(order), r.InUse(), r.QueueLen())
			}
		})
	}
}

// TestResourceSinkCycleZeroAlloc gates the path of a coherence message
// handler: once warm, a sink that takes a free server and one that
// queues behind it, is granted the server by Release, holds it and
// releases it allocate nothing.
func TestResourceSinkCycleZeroAlloc(t *testing.T) {
	e := New()
	h := &holdSink{r: NewResource("r", 1), held: make([]bool, 2)}
	cycle := func() {
		h.acquire(e, 0)
		h.acquire(e, 1)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < wheelSize; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("sink acquire-hold-release cycle allocates %.1f per op, want 0", allocs)
	}
	if h.r.InUse() != 0 || h.r.QueueLen() != 0 {
		t.Fatalf("in use %d, queued %d after the cycles", h.r.InUse(), h.r.QueueLen())
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := New()
	r := NewResource("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	r.Release(e)
}

func TestBarrierRounds(t *testing.T) {
	e := New()
	b := NewBarrier(3)
	releases := make([]int64, 0, 6)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("b", func(p *Process) {
			for round := 0; round < 2; round++ {
				p.Wait(int64(1 + i + round*100))
				b.Arrive(p)
				releases = append(releases, p.Now())
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != 6 {
		t.Fatalf("releases = %v", releases)
	}
	// Each round completes when the slowest (i=2) arrives: the first at
	// t=3, the second at 3+1+2+100 = 106.
	for k, r := range releases {
		if want := []int64{3, 106}[k/3]; r != want {
			t.Fatalf("round %d release at %d, want %d (%v)", k/3+1, r, want, releases)
		}
	}
}

func TestBarrierLastArriverNotBlocked(t *testing.T) {
	e := New()
	b := NewBarrier(2)
	var lastWasCompleter bool
	e.Spawn("first", func(p *Process) {
		b.Arrive(p)
	})
	e.Spawn("second", func(p *Process) {
		p.Wait(5)
		lastWasCompleter = b.Arrive(p)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !lastWasCompleter {
		t.Error("last arriver did not observe completion")
	}
}

func TestGateBroadcastAndReuse(t *testing.T) {
	e := New()
	g := NewGate()
	passed := 0
	for i := 0; i < 3; i++ {
		e.Spawn("g", func(p *Process) {
			g.Wait(p)
			passed++
		})
	}
	atFn(e, 4, func() { g.Open(e) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if passed != 3 {
		t.Fatalf("passed = %d, want 3", passed)
	}
	// A re-armed gate blocks again, and an open one passes at once.
	g.Close()
	e.Spawn("blocked", func(p *Process) { g.Wait(p); passed++ })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if passed != 3 {
		t.Fatalf("passed = %d through a closed gate, want 3", passed)
	}
	g.Open(e)
	e.Spawn("fast", func(p *Process) { g.Wait(p); passed++ })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if passed != 5 {
		t.Fatalf("passed = %d, want 5", passed)
	}
}

// gateHost keeps processes cycling through its gate: each passes the
// open gate and waits on it again, and an event opens and re-arms it.
type gateHost struct {
	g      Gate
	passes int
}

func (h *gateHost) wait(p *Process) {
	for {
		h.g.Wait(p)
		h.passes++
	}
}

func (h *gateHost) OnEvent(e *Engine, _ int64) {
	h.g.Open(e)
	h.g.Close()
}

// TestGateCycleZeroAlloc: a re-armed gate keeps its waiter list, so a
// warmed open/close cycle through sixteen waiters allocates nothing.
func TestGateCycleZeroAlloc(t *testing.T) {
	e := New()
	defer e.Shutdown()
	h := &gateHost{}
	for range 16 {
		e.Spawn("gate", h.wait)
	}
	cycle := func() {
		e.After(1, h, 0)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < wheelSize; i++ {
		cycle()
	}
	passes := h.passes
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("gate open/close cycle allocates %.1f per op, want 0", allocs)
	}
	if got := h.passes - passes; got != 16*101 {
		t.Fatalf("%d passes in 101 cycles of 16 waiters, want %d", got, 16*101)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	a.Reseed(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGSnapshotRestore(t *testing.T) {
	r := NewRNG(7)
	r.Uint64()
	s := r.State()
	first := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r.Restore(s)
	for i, want := range first {
		if got := r.Uint64(); got != want {
			t.Fatalf("replay diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestRNGRangesProperty(t *testing.T) {
	check := func(seed uint64, n uint16) bool {
		r := NewRNG(seed)
		bound := int(n%1000) + 1
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeriveIndependentStreams(t *testing.T) {
	root := NewRNG(99)
	a := root.Derive(0)
	b := root.Derive(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams collided %d/1000 times", same)
	}
	// Deriving must not consume parent state.
	c, d := NewRNG(99), NewRNG(99)
	c.Derive(5)
	if c.Uint64() != d.Uint64() {
		t.Fatal("Derive consumed parent state")
	}
}

func TestRNGBoolBias(t *testing.T) {
	r := NewRNG(31337)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %.3f", frac)
	}
}
