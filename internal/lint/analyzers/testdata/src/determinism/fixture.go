// Fixture for the determinism analyzer: wall-clock calls, global PRNG
// use, and order-sensitive work inside range-over-map loops must be
// flagged; seeded generators and collect-then-sort loops stay silent.
package fixture

import (
	"math/rand"
	"sort"
	"time"

	"coma/internal/sim"
)

func wallClock() int64 {
	t := time.Now()                        // want `time.Now in simulator code: use the sim.Engine clock`
	d := time.Since(t)                     // want `time.Since in simulator code`
	return int64(d) + int64(time.Until(t)) // want `time.Until in simulator code`
}

func timeValuesAreFine() time.Duration {
	return 3 * time.Millisecond // constants and types from package time are fine
}

func globalRand() int {
	return rand.Intn(6) // want `global rand.Intn: derive a sim.RNG from the run seed`
}

func seededRand(r *rand.Rand) int {
	return r.Intn(6) // methods on an explicit generator are fine
}

func construct() *rand.Rand {
	return rand.New(rand.NewSource(1)) // constructors are fine
}

func mapAppendUnsorted(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want `append inside range over map without a later sort`
	}
	return out
}

func mapAppendSorted(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // collected then sorted: fine
	}
	sort.Strings(out)
	return out
}

func mapString(m map[int]string) string {
	s := ""
	for _, v := range m {
		s += v // want `string concatenation inside range over map`
	}
	return s
}

func mapSend(m map[int]int, ch chan<- int) {
	for k := range m {
		ch <- k // want `channel send inside range over map`
	}
}

type engine struct{}

func (engine) Schedule(int) {}
func (engine) At(int)       {}

func mapSchedule(m map[int]int, e engine) {
	for k := range m {
		e.Schedule(k) // want `Schedule call inside range over map`
	}
}

// mapScheduleSim is the kernel's own scheduling call: events scheduled
// in map order would fire in map order at equal times.
func mapScheduleSim(m map[int64]int64, e *sim.Engine, sink sim.EventSink) {
	for t, arg := range m {
		e.At(t, sink, arg) // want `At call inside range over map`
	}
}

func sliceRangeIsFine(xs []int, e engine) []int {
	var out []int
	for _, x := range xs {
		e.At(x)
		out = append(out, x) // slices iterate in order: fine
	}
	return out
}
