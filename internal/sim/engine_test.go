package sim

import (
	"testing"
	"unsafe"
)

// fnSink runs a closure as an event, so tests can schedule ad-hoc work
// without a sink type of their own.
type fnSink func()

func (f fnSink) OnEvent(*Engine, int64) { f() }

// atFn schedules fn at absolute time t.
func atFn(e *Engine, t int64, fn func()) { e.At(t, fnSink(fn), 0) }

// afterFn schedules fn d cycles from now.
func afterFn(e *Engine, d int64, fn func()) { e.After(d, fnSink(fn), 0) }

// TestEventSize pins the event at 48 bytes: every wheel-pool and
// overflow slot is one.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 48 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 48", n)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	atFn(e, 10, func() { got = append(got, 1) })
	atFn(e, 5, func() { got = append(got, 0) })
	atFn(e, 10, func() { got = append(got, 2) }) // same time: schedule order
	atFn(e, 20, func() { got = append(got, 3) })
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 20 {
		t.Fatalf("end time = %d, want 20", end)
	}
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New()
	var at int64 = -1
	afterFn(e, 7, func() { at = e.Now() })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7 {
		t.Fatalf("event ran at %d, want 7", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	atFn(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		atFn(e, 5, func() {})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := 0
	atFn(e, 10, func() { fired++ })
	atFn(e, 20, func() { fired++ })
	atFn(e, 30, func() { fired++ })
	end, err := e.RunUntil(20)
	if err != nil {
		t.Fatal(err)
	}
	if end != 20 {
		t.Fatalf("end = %d, want 20", end)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at exactly the limit fire)", fired)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d after resume, want 3", fired)
	}
}

func TestStop(t *testing.T) {
	e := New()
	fired := 0
	atFn(e, 1, func() { fired++; e.Stop() })
	atFn(e, 2, func() { fired++ })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestHeapManyEvents(t *testing.T) {
	e := New()
	r := NewRNG(42)
	const n = 5000
	times := make([]int64, n)
	for i := range times {
		times[i] = r.Int63n(1000)
	}
	var prev int64 = -1
	count := 0
	for _, ti := range times {
		ti := ti
		atFn(e, ti, func() {
			if ti < prev {
				t.Fatalf("event at %d fired after %d", ti, prev)
			}
			prev = ti
			count++
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("dispatched %d, want %d", count, n)
	}
	if e.Events() != n {
		t.Fatalf("Events() = %d, want %d", e.Events(), n)
	}
}

// TestSameCycleScheduleOrder pins the same-cycle contract: events
// scheduled for the current cycle while the engine is running (they go
// to the tail of the current cycle's wheel slot) still interleave with
// already-queued events at that cycle in strict schedule order.
func TestSameCycleScheduleOrder(t *testing.T) {
	e := New()
	var got []string
	atFn(e, 10, func() {
		got = append(got, "a")
		atFn(e, 10, func() { // same cycle, scheduled during dispatch
			got = append(got, "c")
			atFn(e, 10, func() { got = append(got, "e") })
		})
	})
	atFn(e, 10, func() { // pre-queued at the same cycle: fires before "c"
		got = append(got, "b")
		atFn(e, 10, func() { got = append(got, "d") })
	})
	atFn(e, 11, func() { got = append(got, "f") }) // later cycle: last
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "abcdef"
	if s := joinStrings(got); s != want {
		t.Fatalf("dispatch order %q, want %q", s, want)
	}
}

func joinStrings(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s
	}
	return out
}

// TestSameCycleWakeInterleavesWithEvents checks that a Wait(0) wake (an
// allocation-free proc event in the current cycle's slot) keeps schedule
// order against sink events at the same cycle.
func TestSameCycleWakeInterleavesWithEvents(t *testing.T) {
	e := New()
	var got []string
	e.Spawn("p", func(p *Process) {
		p.Wait(5)
		got = append(got, "wake1")
		p.Wait(0) // yields; the event scheduled below at 5 runs first
		got = append(got, "wake2")
	})
	atFn(e, 5, func() { got = append(got, "cb") })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The process spawns at 0 and parks; its time-5 wake was scheduled at
	// spawn+wait time (seq before the At above? No: Spawn schedules at 0,
	// the process runs and schedules its wake only during Run). Order:
	// cb was scheduled before Run, the wake during it, so cb fires first.
	want := "cb,wake1,wake2"
	if s := joinComma(got); s != want {
		t.Fatalf("order %q, want %q", s, want)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %d, want 5", e.Now())
	}
}

func joinComma(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// TestRunUntilWithSameCycleEvents checks that events spawned for the
// current cycle at exactly the limit still fire before RunUntil returns.
func TestRunUntilWithSameCycleEvents(t *testing.T) {
	e := New()
	fired := 0
	atFn(e, 20, func() {
		fired++
		atFn(e, 20, func() { fired++ }) // same-cycle, at the limit
	})
	atFn(e, 30, func() { fired++ })
	end, err := e.RunUntil(20)
	if err != nil {
		t.Fatal(err)
	}
	if end != 20 || fired != 2 {
		t.Fatalf("end = %d fired = %d, want 20 and 2", end, fired)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d after resume, want 3", fired)
	}
}

// TestStopLeavesSameCycleEventsResumable: Stop during a burst of
// same-cycle events must not lose the pending ones; a later Run resumes
// them in order.
func TestStopLeavesSameCycleEventsResumable(t *testing.T) {
	e := New()
	var got []int
	atFn(e, 5, func() {
		got = append(got, 1)
		atFn(e, 5, func() { got = append(got, 2) })
		atFn(e, 5, func() { got = append(got, 3) })
		e.Stop()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("fired %v before stop, want just the stopper", got)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("resumed order %v, want [1 2 3]", got)
	}
}

func TestProcessWait(t *testing.T) {
	e := New()
	var trace []int64
	e.Spawn("walker", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			trace = append(trace, p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	if e.Processes() != 0 {
		t.Fatalf("live processes = %d, want 0", e.Processes())
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var order []string
		for _, d := range []struct {
			name string
			step int64
		}{{"a", 3}, {"b", 5}, {"c", 7}} {
			d := d
			e.Spawn(d.name, func(p *Process) {
				for i := 0; i < 4; i++ {
					p.Wait(d.step)
					order = append(order, d.name)
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d: order diverged at %d: %v vs %v", i, j, again, first)
			}
		}
	}
}

func TestShutdownKillsParkedProcesses(t *testing.T) {
	e := New()
	f := NewFuture[int]()
	cleaned := false
	e.Spawn("stuck", func(p *Process) {
		defer func() { cleaned = true }()
		f.Await(p) // never completed
		t.Error("process resumed past an incomplete future")
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processes() != 1 {
		t.Fatalf("live processes = %d, want 1 (parked)", e.Processes())
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("live processes after shutdown = %d, want 0", e.Processes())
	}
	if !cleaned {
		t.Error("deferred cleanup did not run on kill")
	}
}

func TestShutdownManyProcesses(t *testing.T) {
	e := New()
	g := NewGate()
	for i := 0; i < 50; i++ {
		e.Spawn("w", func(p *Process) { g.Wait(p); p.Wait(1e18) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("live processes = %d, want 0", e.Processes())
	}
}

func TestNestedRunRejected(t *testing.T) {
	e := New()
	var nested error
	atFn(e, 1, func() { _, nested = e.Run() })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if nested != ErrNested {
		t.Fatalf("nested Run error = %v, want ErrNested", nested)
	}
}
