package sim

import "testing"

func BenchmarkEventDispatch(b *testing.B) {
	b.ReportAllocs()
	e := New()
	for i := 0; i < b.N; i++ {
		afterFn(e, 1, func() {})
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessWait measures the kernel's hottest path: one process
// blocking and being woken once per simulated cycle.
func BenchmarkProcessWait(b *testing.B) {
	b.ReportAllocs()
	e := New()
	e.Spawn("w", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	e.Shutdown()
}

// BenchmarkProcessWaitZero measures the same-cycle wake path: Wait(0)
// yields for the current cycle and must resume without advancing time.
func BenchmarkProcessWaitZero(b *testing.B) {
	b.ReportAllocs()
	e := New()
	e.Spawn("w", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Wait(0)
		}
	})
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	e.Shutdown()
}

// BenchmarkSpawnWaitChurn measures process lifecycle cost: each iteration
// spawns a short-lived process that blocks a few times and exits. It is
// what a message handler would cost as a process; the coherence engine's
// handlers run as events instead.
func BenchmarkSpawnWaitChurn(b *testing.B) {
	b.ReportAllocs()
	e := New()
	for i := 0; i < b.N; i++ {
		e.Spawn("churn", func(p *Process) {
			p.Wait(1)
			p.Wait(1)
			p.Wait(0)
		})
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	e.Shutdown()
}

// BenchmarkHeapPushPop measures the binary min-heap that backs the
// timing wheel's far-future overflow: each iteration pushes and pops one
// event while depth-1 others are pending. Kept as the baseline the wheel
// is compared against (see BenchmarkWheelDepths).
func BenchmarkHeapPushPop(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		depth := depth
		b.Run(benchName(depth), func(b *testing.B) {
			b.ReportAllocs()
			var h eventHeap
			r := NewRNG(7)
			var seq int64
			for i := 0; i < depth-1; i++ {
				seq++
				h.push(event{time: 1 + r.Int63n(1<<30), seq: seq})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq++
				h.push(event{time: 1 + r.Int63n(1<<30), seq: seq})
				h.pop()
			}
		})
	}
}

// BenchmarkWheelDepths measures the full event queue (wheel + overflow)
// at the same depths as BenchmarkHeapPushPop. The "near" variant keeps
// every event inside the wheel window — the simulator's hot distribution
// (mesh hops, service times) — so push/pop is slot append plus bitmap
// scan; the "far" variant forces most events through the overflow heap
// and its migration path.
func BenchmarkWheelDepths(b *testing.B) {
	for _, dist := range []struct {
		name string
		span int64
	}{
		{"near", wheelSize - 1},
		{"far", 1 << 20},
	} {
		for _, depth := range []int{16, 256, 4096} {
			dist, depth := dist, depth
			b.Run(dist.name+"/"+benchName(depth), func(b *testing.B) {
				b.ReportAllocs()
				var q eventQueue
				r := NewRNG(7)
				var now, seq int64
				push := func() {
					seq++
					q.push(event{time: now + 1 + r.Int63n(dist.span), seq: seq})
				}
				for i := 0; i < depth-1; i++ {
					push()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					push()
					now = q.pop().time
				}
			})
		}
	}
}

func benchName(depth int) string {
	switch depth {
	case 16:
		return "depth16"
	case 256:
		return "depth256"
	default:
		return "depth4096"
	}
}

// BenchmarkPingPong measures a many-process wake storm: pairs of
// processes handing a future back and forth, the shape of
// request/reply traffic between coherence transaction processes.
func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	const pairs = 8
	e := New()
	type court struct {
		ball *Future[int]
		back *Future[int]
	}
	courts := make([]*court, pairs)
	rounds := b.N/pairs + 1
	for i := 0; i < pairs; i++ {
		c := &court{ball: NewFuture[int](), back: NewFuture[int]()}
		courts[i] = c
		e.Spawn("ping", func(p *Process) {
			for r := 0; r < rounds; r++ {
				ball := c.ball
				back := c.back
				ball.Complete(e, r)
				back.Await(p)
				if r+1 < rounds {
					c.ball = NewFuture[int]()
					c.back = NewFuture[int]()
				}
			}
		})
		e.Spawn("pong", func(p *Process) {
			for r := 0; r < rounds; r++ {
				ball := c.ball
				ball.Await(p)
				p.Wait(1)
				c.back.Complete(e, r)
				p.Wait(1)
			}
		})
	}
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	e.Shutdown()
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
