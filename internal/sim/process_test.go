package sim

import (
	"flag"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// waitOnce is a static process body: converting it to a Body does not
// allocate, so the zero-alloc gates measure the engine alone.
func waitOnce(p *Process) { p.Wait(1) }

// TestSpawnRecycledZeroAlloc gates the steady-state handler path: once a
// finished process is on the free list, a spawn → Wait → exit cycle
// reuses its Process and goroutine and allocates nothing.
func TestSpawnRecycledZeroAlloc(t *testing.T) {
	e := New()
	defer e.Shutdown()
	cycle := func() {
		e.Spawn("w", waitOnce)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: the first cycle creates the goroutine; a full lap of the
	// timing wheel gives every slot its backing array.
	for i := 0; i < wheelSize; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("recycled spawn cycle allocates %.1f per op, want 0", allocs)
	}
}

// futureHost awaits its future in a process and completes it from a
// typed event, so a cycle needs no closure.
type futureHost struct{ f Future[int] }

func (h *futureHost) Run(p *Process, _ int64) {
	if v := h.f.Await(p); v != 7 {
		panic("wrong future value")
	}
}

func (h *futureHost) OnEvent(e *Engine, _ int64) { h.f.Complete(e, 7) }

// TestFutureSingleWaiterZeroAlloc: a future with one waiter holds it
// inline, so Await → Complete allocates nothing.
func TestFutureSingleWaiterZeroAlloc(t *testing.T) {
	e := New()
	defer e.Shutdown()
	h := &futureHost{}
	cycle := func() {
		h.f = Future[int]{}
		e.SpawnBody("await", h, 0)
		e.AfterSink(1, h, 0)
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
	e.At(10, func() { f.Complete(e, 1) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("wake order = %v, want [0 1 2 3]", order)
	}
}

// TestRecycledProcessGetsFreshPID: a spawn after a process finished
// reuses that Process, but under the next, larger process id.
func TestRecycledProcessGetsFreshPID(t *testing.T) {
	e := New()
	defer e.Shutdown()
	first := e.Spawn("a", waitOnce)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	firstID := first.id
	second := e.Spawn("b", waitOnce)
	if second != first {
		t.Fatal("spawn after a finished process did not reuse it")
	}
	if second.id <= firstID {
		t.Fatalf("recycled pid = %d, want > %d", second.id, firstID)
	}
	if second.Name() != "b" {
		t.Fatalf("recycled name = %q, want %q", second.Name(), "b")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledSelfStart covers the dying-holder hazard: a process that
// finishes keeps dispatching, and the next event it dispatches spawns a
// process that takes its own goroutine off the free list and starts at
// once. The holder must run the new body itself instead of handing the
// baton to its own channel.
func TestRecycledSelfStart(t *testing.T) {
	e := New()
	defer e.Shutdown()
	var trail []string
	e.Spawn("first", func(p *Process) {
		p.Wait(1)
		e.At(1, func() {
			e.Spawn("second", func(p *Process) {
				trail = append(trail, "second")
				p.Wait(1)
			})
		})
		trail = append(trail, "first")
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(trail, []string{"first", "second"}) {
		t.Fatalf("trail = %v", trail)
	}
	if e.Now() != 2 || e.Processes() != 0 || len(e.idle) != 1 {
		t.Fatalf("now=%d live=%d idle=%d, want 2, 0, 1", e.Now(), e.Processes(), len(e.idle))
	}
}

// TestProcessesExcludesIdle: finished processes park on the free list
// but are not live.
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
	if len(e.idle) != 3 {
		t.Fatalf("idle = %d, want 3", len(e.idle))
	}
}

// TestShutdownKillsInPIDOrderThenDrainsIdle: live processes, recycled or
// not, die in ascending pid order; afterwards no goroutine of the engine
// is left, idle ones included.
func TestShutdownKillsInPIDOrderThenDrainsIdle(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	g := NewGate()
	var killed []int
	stuck := func(p *Process) {
		defer func() { killed = append(killed, p.id) }()
		g.Wait(p)
	}
	// One fresh stuck process and four finished ones leave four idle
	// goroutines; three are then recycled into stuck processes and one
	// stays idle.
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
	if e.Processes() != 4 || len(e.idle) != 1 {
		t.Fatalf("live=%d idle=%d, want 4 and 1", e.Processes(), len(e.idle))
	}
	e.Shutdown()
	if !slices.Equal(killed, []int{1, 6, 7, 8}) {
		t.Fatalf("kill order = %v, want ascending pids [1 6 7 8]", killed)
	}
	if e.Processes() != 0 || len(e.idle) != 0 {
		t.Fatalf("after shutdown live=%d idle=%d, want 0", e.Processes(), len(e.idle))
	}
	waitGoroutines(t, before)
}

// TestShutdownReapsUnstartedProcess: a process whose start never fired
// (Stop came first) has no goroutine; Shutdown drops it without a
// handshake instead of blocking on it.
func TestShutdownReapsUnstartedProcess(t *testing.T) {
	e := New()
	e.At(1, func() {
		e.Spawn("late", waitOnce)
		e.Stop()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processes() != 1 {
		t.Fatalf("live = %d, want 1 unstarted", e.Processes())
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", e.Processes())
	}
}

// waitGoroutines polls until the goroutine count is back to want: an
// ended process goroutine returns just after handing the baton back.
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

// crashHelperArg selects the crashing half of
// TestPanickingProcessReraised when the test binary re-runs itself.
const crashHelperArg = "sim-crash-helper"

// TestPanickingProcessReraised: a panic in a process body is re-raised
// on its goroutine, crashing the program loudly with the process name,
// rather than being swallowed into the free list. It runs in a child
// copy of the test binary, since the crash ends the process.
func TestPanickingProcessReraised(t *testing.T) {
	if slices.Contains(flag.Args(), crashHelperArg) {
		crashingRun()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPanickingProcessReraised$", "--", crashHelperArg)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("crashing run exited cleanly:\n%s", out)
	}
	if !strings.Contains(string(out), `sim: process "bad" panicked: boom`) {
		t.Fatalf("crash output lacks the re-raised panic:\n%s", out)
	}
	if strings.Contains(string(out), "survived") {
		t.Fatalf("the run went on past the crash:\n%s", out)
	}
}

// crashingRun recycles one process, then spawns one that panics.
func crashingRun() {
	e := New()
	e.Spawn("ok", waitOnce)
	if _, err := e.Run(); err != nil {
		panic(err)
	}
	e.Spawn("bad", func(p *Process) {
		p.Wait(1)
		panic("boom")
	})
	_, _ = e.Run()
	// The crash on the process goroutine ends the program; give it the
	// time to do so before reporting that it did not.
	time.Sleep(10 * time.Second)
	os.Stdout.WriteString("survived\n")
}
