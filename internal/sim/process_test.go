package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// waitOnce is a process body that waits one cycle and finishes.
func waitOnce(p *Process) { p.Wait(1) }

// futureHost awaits its future in a long-lived process and completes it
// from a typed event, so a cycle needs no closure.
type futureHost struct{ f Future[int] }

func (h *futureHost) await(p *Process) {
	for {
		if v := h.f.Await(p); v != 7 {
			panic("wrong future value")
		}
		h.f.Reset()
	}
}

func (h *futureHost) OnEvent(e *Engine, _ int64) { h.f.Complete(e, 7) }

// TestFutureSingleWaiterZeroAlloc: a future with one waiter holds it
// inline, so Await → Complete allocates nothing.
func TestFutureSingleWaiterZeroAlloc(t *testing.T) {
	e := New()
	defer e.Shutdown()
	h := &futureHost{}
	e.Spawn("await", h.await)
	cycle := func() {
		e.After(1, h, 0)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < wheelSize; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("single-waiter future cycle allocates %.1f per op, want 0", allocs)
	}
}

// TestFutureWakeOrderFIFO: the inline first waiter and the spilled later
// ones resume in arrival order.
func TestFutureWakeOrderFIFO(t *testing.T) {
	e := New()
	f := NewFuture[int]()
	var order []int
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Process) {
			p.Wait(int64(i)) // arrive in order 0, 1, 2, 3
			f.Await(p)
			order = append(order, i)
		})
	}
	atFn(e, 10, func() { f.Complete(e, 1) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("wake order = %v, want [0 1 2 3]", order)
	}
}

// TestProcessesExcludesIdle: finished processes are not live.
func TestProcessesExcludesIdle(t *testing.T) {
	e := New()
	defer e.Shutdown()
	for i := 0; i < 3; i++ {
		e.Spawn("w", waitOnce)
	}
	if e.Processes() != 3 {
		t.Fatalf("live before run = %d, want 3", e.Processes())
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processes() != 0 {
		t.Fatalf("live after run = %d, want 0", e.Processes())
	}
}

// TestShutdownKillsInPIDOrder: live processes die in ascending pid
// order, whatever the order they parked in; afterwards no goroutine of
// the engine is left.
func TestShutdownKillsInPIDOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	g := NewGate()
	var killed []int
	stuck := func(p *Process) {
		defer func() { killed = append(killed, p.id) }()
		g.Wait(p)
	}
	// One stuck process and four finished ones, then three more stuck
	// ones: the stuck pids are 1, 6, 7 and 8.
	e.Spawn("stuck", stuck)
	for i := 0; i < 4; i++ {
		e.Spawn("done", waitOnce)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Spawn("stuck", stuck)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processes() != 4 {
		t.Fatalf("live = %d, want 4", e.Processes())
	}
	e.Shutdown()
	if !slices.Equal(killed, []int{1, 6, 7, 8}) {
		t.Fatalf("kill order = %v, want ascending pids [1 6 7 8]", killed)
	}
	if e.Processes() != 0 {
		t.Fatalf("after shutdown live = %d, want 0", e.Processes())
	}
	waitGoroutines(t, before)
}

// TestShutdownReapsUnstartedProcess: a process whose start never fired
// (Stop came first) has no goroutine; Shutdown drops it without a
// handshake instead of blocking on it.
func TestShutdownReapsUnstartedProcess(t *testing.T) {
	e := New()
	atFn(e, 1, func() {
		e.Spawn("late", waitOnce)
		e.Stop()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processes() != 1 {
		t.Fatalf("live = %d, want 1 not yet started", e.Processes())
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", e.Processes())
	}
}

// waitGoroutines polls until the goroutine count is back to want, or
// fails the test after five seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanickingProcessReraised: a panic in a process body reaches the
// caller of Run with the process name, rather than being swallowed; the
// run goes no further, and a following Shutdown reaps what is left.
func TestPanickingProcessReraised(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	e.Spawn("ok", waitOnce)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Spawn("bad", func(p *Process) {
		p.Wait(1)
		panic("boom")
	})
	e.Spawn("parked", func(p *Process) { p.Park() })
	later := false
	atFn(e, e.Now()+5, func() { later = true })
	got := func() (r any) {
		defer func() { r = recover() }()
		_, _ = e.Run()
		return nil
	}()
	if want := `sim: process "bad" panicked: boom`; got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
	if later {
		t.Fatal("an event after the panic ran")
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", e.Processes())
	}
	waitGoroutines(t, before)
}
