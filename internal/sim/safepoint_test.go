package sim

import "testing"

// TestSafePointDeterministic runs the same workload with and without a
// safe-point hook and asserts the dispatch outcome — final time, event
// count, observed callback order — is identical, and that the hook fires
// once per dispatched event plus the terminal check.
func TestSafePointDeterministic(t *testing.T) {
	workload := func(e *Engine) []int {
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			atFn(e, int64(10*i), func() { order = append(order, i) })
		}
		atFn(e, 25, func() { order = append(order, 100) })
		e.Spawn("p", func(p *Process) {
			p.Wait(37)
			order = append(order, 200)
			p.Wait(5)
			order = append(order, 201)
		})
		return order
	}

	plain := New()
	orderPlain := workload(plain)
	if _, err := plain.Run(); err != nil {
		t.Fatal(err)
	}

	hooked := New()
	orderHooked := workload(hooked)
	var hookCalls int64
	var lastNow int64 = -1
	hooked.SetSafePointHook(func(now int64) {
		hookCalls++
		if now < lastNow {
			t.Errorf("safe point time went backwards: %d after %d", now, lastNow)
		}
		lastNow = now
		// Reads at a safe point must be legal and must not perturb the run.
		hooked.QueueStats()
		_ = hooked.Now()
		_ = hooked.Events()
	})
	if _, err := hooked.Run(); err != nil {
		t.Fatal(err)
	}

	if plain.Now() != hooked.Now() {
		t.Errorf("final time diverged: plain %d, hooked %d", plain.Now(), hooked.Now())
	}
	if plain.Events() != hooked.Events() {
		t.Errorf("event count diverged: plain %d, hooked %d", plain.Events(), hooked.Events())
	}
	if len(orderPlain) != len(orderHooked) {
		t.Fatalf("callback count diverged: plain %d, hooked %d", len(orderPlain), len(orderHooked))
	}
	for i := range orderPlain {
		if orderPlain[i] != orderHooked[i] {
			t.Errorf("callback order diverged at %d: plain %d, hooked %d",
				i, orderPlain[i], orderHooked[i])
		}
	}
	if hookCalls == 0 {
		t.Error("safe-point hook never fired")
	}
	// One safe point precedes every dispatch attempt; with E events that
	// is at least E (each dispatched event was preceded by a check).
	if hookCalls < hooked.Events() {
		t.Errorf("hook fired %d times for %d events", hookCalls, hooked.Events())
	}
	hooked.Shutdown()
	plain.Shutdown()
}

// TestQueueStats pins the wheel/overflow split reported at a safe
// point: a far-future event sits in the overflow heap, near events in
// the wheel, and so does a same-cycle event scheduled mid-dispatch.
func TestQueueStats(t *testing.T) {
	e := New()
	atFn(e, 1, func() {})
	atFn(e, 2, func() {})
	atFn(e, wheelSize*4, func() {}) // beyond the window: overflow
	if w, o := e.QueueStats(); w != 2 || o != 1 {
		t.Errorf("QueueStats before run = (%d, %d), want (2, 1)", w, o)
	}

	var w, o int
	e2 := New()
	atFn(e2, 5, func() {
		atFn(e2, 5, func() {}) // same cycle while running: the wheel
		w, o = e2.QueueStats()
	})
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if w != 1 || o != 0 {
		t.Errorf("QueueStats after a same-cycle schedule = (%d, %d), want (1, 0)", w, o)
	}
}
