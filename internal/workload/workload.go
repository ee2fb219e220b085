// Package workload generates the memory-reference streams that drive the
// simulated processors. The paper traces four SPLASH applications with
// Abstract Execution; those binaries and traces are not available, so this
// package substitutes deterministic synthetic generators parameterised to
// match Table 3 of the paper: instruction counts, read/write mix, shared
// read/write mix, relative working-set sizes (Mp3d about nine times
// Barnes), locality, migratory objects (Mp3d, Water) and mostly-read
// shared data (Barnes). See DESIGN.md §2 for why this substitution
// preserves the shape of every result.
//
// Generators are snapshotable: the machine records their state at every
// committed recovery point and restores it on rollback, playing the role
// of the processor-register recovery data.
package workload

import (
	"fmt"
	"math"

	"coma/internal/sim"
)

// Kind classifies one element of a reference stream.
type Kind uint8

const (
	// Instr is a burst of N non-memory instructions.
	Instr Kind = iota
	// Read is a data load from Addr.
	Read
	// Write is a data store to Addr.
	Write
	// Barrier is a global synchronisation point: the processor blocks
	// until every live processor reaches its barrier.
	Barrier
	// End terminates the stream.
	End
)

func (k Kind) String() string {
	switch k {
	case Instr:
		return "instr"
	case Read:
		return "read"
	case Write:
		return "write"
	case Barrier:
		return "barrier"
	case End:
		return "end"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Ref is one element of a processor's reference stream.
type Ref struct {
	Kind Kind
	Addr uint64
	// N is the burst length for Instr references.
	N int64
	// Shared marks references to the shared region (for Table 3 style
	// accounting).
	Shared bool
}

// Tally counts a reference stream's mix, the quantities of the paper's
// Table 3: instructions (each Read and Write is one), reads and writes
// with their shared subsets, and barriers.
type Tally struct {
	Instructions, Reads, Writes, SharedReads, SharedWrites, Barriers int64
}

// Add counts one stream element.
func (t *Tally) Add(r Ref) {
	switch r.Kind {
	case Instr:
		t.Instructions += r.N
	case Read:
		t.Instructions++
		t.Reads++
		if r.Shared {
			t.SharedReads++
		}
	case Write:
		t.Instructions++
		t.Writes++
		if r.Shared {
			t.SharedWrites++
		}
	case Barrier:
		t.Barriers++
	case End:
	}
}

// Generator produces one processor's reference stream.
type Generator interface {
	// Next returns the next stream element. After End it keeps
	// returning End.
	Next() Ref
	// Snapshot captures the generator state for rollback.
	Snapshot() Snapshot
	// Restore rewinds to a previously captured state.
	Restore(Snapshot)
	// Name identifies the workload.
	Name() string
}

// Snapshot is an opaque generator state. Each generator type documents
// its own concrete snapshot type.
type Snapshot interface{}

// SharedBase is the byte address where the shared region starts.
const SharedBase uint64 = 0

// PrivateBase is the byte address where per-processor private regions
// start; processor p owns [PrivateBase + p*PrivateStride, +PrivateBytes).
const PrivateBase uint64 = 1 << 30

// PrivateStride separates consecutive processors' private regions. The
// odd page offset keeps consecutive regions from aliasing into the same
// attraction-memory set (the role page colouring plays in a real OS).
const PrivateStride uint64 = 1<<24 + 3<<14

// Spec parameterises a synthetic application. Fractions are of total
// instructions, matching Table 3 of the paper (shared fractions are
// subsets of the totals).
type Spec struct {
	Name string

	// Instructions is the total instruction budget across all
	// processors; each processor executes Instructions/Procs.
	Instructions int64

	ReadFrac        float64
	WriteFrac       float64
	SharedReadFrac  float64
	SharedWriteFrac float64

	// SharedBytes is the shared working set; PrivateBytes is each
	// processor's private working set.
	SharedBytes  int
	PrivateBytes int

	// ReadOnlyFrac is the fraction of the shared region holding
	// mostly-read data (Barnes-style bodies read by everyone).
	ReadOnlyFrac float64

	// Migratory is the probability that a shared access targets the
	// processor's current migratory object (Mp3d particles, Water
	// molecules): data read-modified-written in a burst by one
	// processor, then later by another — ownership migrates.
	Migratory float64
	// MigratoryObjects is the number of distinct migratory objects.
	MigratoryObjects int
	// MigratoryPhase is the burst length: how many of the processor's
	// instructions are spent on one object before its sweep advances to
	// the next (an Mp3d particle move, a Water molecule update). Each
	// processor sweeps the object array from its own offset, so over
	// time every object is visited — and its ownership taken — by every
	// processor.
	MigratoryPhase int64

	// Locality is the probability that a reference reuses the previous
	// address of its class (temporal locality).
	Locality float64

	// HotBytes is the size of the private hot window: most private
	// accesses fall inside a window that drifts through the private
	// region, modelling loop/stack locality (default 2 KB).
	HotBytes int
	// WindowBytes is the size of each processor's active window within
	// its partition of the shared read-write region: shared writes
	// concentrate there, modelling the per-processor work assignment of
	// the SPLASH applications (default 4 KB). Along with DriftInstr it
	// controls the modified-data footprint per recovery-point interval
	// — the quantity T_create depends on.
	WindowBytes int
	// DriftInstr is how many of the processor's instructions pass
	// before the hot and partition windows slide forward (default
	// 10000). Not rescaled by Scale: the footprint per checkpoint
	// interval is a per-time property.
	DriftInstr int64

	// Barriers is the number of global synchronisation phases.
	Barriers int
}

// Probabilities of the address model (fixed; the per-app variation comes
// from the window sizes and drift rates). Writes are far more
// concentrated than reads: the modified-data footprint per checkpoint
// interval — the quantity the ECP's T_create depends on — is set by the
// windows plus a small scatter tail, while reads roam the data structures.
const (
	pHotPrivateWrite = 0.995 // private write falls in the hot window
	pHotPrivateRead  = 0.90  // private read falls in the hot window
	pOwnPartition    = 0.97  // shared write targets the own-partition window
	pReadOwn         = 0.50  // non-RO shared read targets the own window
)

// Validate checks the specification for consistency.
func (s Spec) Validate() error {
	refFrac := s.ReadFrac + s.WriteFrac
	switch {
	case s.Instructions <= 0:
		return fmt.Errorf("workload %s: Instructions = %d", s.Name, s.Instructions)
	case refFrac <= 0 || refFrac >= 1:
		return fmt.Errorf("workload %s: reference fraction %.3f out of (0,1)", s.Name, refFrac)
	case s.SharedReadFrac > s.ReadFrac || s.SharedWriteFrac > s.WriteFrac:
		return fmt.Errorf("workload %s: shared fractions exceed totals", s.Name)
	case s.SharedBytes <= 0 || s.PrivateBytes < 0:
		return fmt.Errorf("workload %s: working-set sizes invalid", s.Name)
	case uint64(s.PrivateBytes) > PrivateStride:
		return fmt.Errorf("workload %s: private region exceeds stride", s.Name)
	case s.ReadOnlyFrac < 0 || s.ReadOnlyFrac > 1:
		return fmt.Errorf("workload %s: ReadOnlyFrac = %f", s.Name, s.ReadOnlyFrac)
	case s.Migratory < 0 || s.Migratory > 1:
		return fmt.Errorf("workload %s: Migratory = %f", s.Name, s.Migratory)
	case s.Migratory > 0 && s.MigratoryObjects <= 0:
		return fmt.Errorf("workload %s: Migratory set but no objects", s.Name)
	}
	return nil
}

// Scale returns a copy with the instruction budget scaled by f. Working
// sets, window drift and migration rates stay fixed: they are per-time
// properties of the application, and the recovery-point intervals they
// interact with are also expressed in time, so scaled runs keep the
// paper-relevant per-interval behaviour.
func (s Spec) Scale(f float64) Spec {
	out := s
	out.Instructions = int64(float64(s.Instructions) * f)
	if out.Instructions < 1 {
		out.Instructions = 1
	}
	return out
}

// appState is the complete, value-copyable state of one App generator.
type appState struct {
	rng         sim.RNG
	issued      int64 // instructions issued so far
	nextBarrier int64
	barriers    int
	pending     Ref
	hasPending  bool
	// Last addresses per class: temporal-locality reuse must not let the
	// write stream follow the (far more scattered) read stream, or the
	// modified-data footprint per checkpoint interval explodes.
	lastSharedR  uint64
	lastSharedW  uint64
	lastPrivateR uint64
	lastPrivateW uint64
}

// App is the synthetic application generator for one processor.
type App struct {
	spec    Spec
	proc    int
	procs   int
	total   int64 // this processor's instruction budget
	barrGap int64
	st      appState
	// logNonRef is math.Log(1 - (ReadFrac + WriteFrac)), the log of an
	// instruction's chance of not being a reference, which scales
	// Next's geometric gap draw.
	logNonRef float64

	// Cached address-space geometry.
	roItems  int64
	rwItems  int64
	sharedLo uint64
	privBase uint64
	privLen  uint64

	// Windowed-locality geometry (see Spec.WindowBytes).
	hotBytes  int64
	winItems  int64
	slide     int64
	drift     int64
	partStart int64 // first item of this processor's rw partition
	partItems int64
}

const itemBytes = 128 // address granularity of shared objects

// NewApp builds the generator for one processor of an application run.
func (s Spec) NewApp(proc, procs int, seed uint64) *App {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if proc < 0 || proc >= procs {
		panic(fmt.Sprintf("workload: proc %d out of %d", proc, procs))
	}
	total := s.Instructions / int64(procs)
	if total < 1 {
		total = 1
	}
	barrGap := int64(math.MaxInt64)
	if s.Barriers > 0 {
		barrGap = total / int64(s.Barriers+1)
		if barrGap < 1 {
			barrGap = 1
		}
	}
	sharedItems := int64(s.SharedBytes / itemBytes)
	if sharedItems < 2 {
		sharedItems = 2
	}
	roItems := int64(float64(sharedItems) * s.ReadOnlyFrac)
	rwItems := sharedItems - roItems
	if rwItems < 1 {
		rwItems = 1
		roItems = sharedItems - 1
	}
	a := &App{
		spec:     s,
		proc:     proc,
		procs:    procs,
		total:    total,
		barrGap:  barrGap,
		roItems:  roItems,
		rwItems:  rwItems,
		sharedLo: SharedBase,
		privBase: PrivateBase + uint64(proc)*PrivateStride,
		privLen:  uint64(s.PrivateBytes),

		logNonRef: math.Log(1 - (s.ReadFrac + s.WriteFrac)),
	}
	// Window sizes are nominal for the paper's 16-processor machine and
	// shrink (sublinearly) as a fixed-size problem is divided among more
	// processors — each processor's active data share gets smaller, which
	// is how the paper explains the per-processor recovery-data decrease
	// in its scalability study (Mp3d: 9.6 KB at 30 processors to 6.8 KB
	// at 56).
	shareScale := math.Sqrt(16 / float64(procs))
	if shareScale < 0.5 {
		shareScale = 0.5
	}
	if shareScale > 2 {
		shareScale = 2
	}
	a.hotBytes = int64(s.HotBytes)
	if a.hotBytes <= 0 {
		a.hotBytes = 2 << 10
	}
	a.hotBytes = int64(float64(a.hotBytes) * shareScale)
	if a.hotBytes < 256 {
		a.hotBytes = 256
	}
	winBytes := int64(s.WindowBytes)
	if winBytes <= 0 {
		winBytes = 4 << 10
	}
	winBytes = int64(float64(winBytes) * shareScale)
	if winBytes < itemBytes {
		winBytes = itemBytes
	}
	a.drift = s.DriftInstr
	if a.drift <= 0 {
		a.drift = 10_000
	}
	a.partItems = rwItems / int64(procs)
	if a.partItems < 1 {
		a.partItems = 1
	}
	a.partStart = roItems + int64(proc)*a.partItems
	a.winItems = winBytes / itemBytes
	if a.winItems < 1 {
		a.winItems = 1
	}
	if a.winItems > a.partItems {
		a.winItems = a.partItems
	}
	a.slide = a.winItems / 4
	if a.slide < 1 {
		a.slide = 1
	}
	root := sim.NewRNG(seed)
	a.st = appState{
		rng:          *root.Derive(uint64(proc)),
		nextBarrier:  barrGap,
		lastSharedR:  a.sharedLo,
		lastSharedW:  a.sharedLo,
		lastPrivateR: a.privBase,
		lastPrivateW: a.privBase,
	}
	return a
}

// Name implements Generator.
func (a *App) Name() string { return a.spec.Name }

// Snapshot implements Generator; the concrete type is appState.
func (a *App) Snapshot() Snapshot { return a.st }

// Restore implements Generator.
func (a *App) Restore(s Snapshot) { a.st = s.(appState) }

// Total returns this processor's instruction budget.
func (a *App) Total() int64 { return a.total }

// Next implements Generator.
func (a *App) Next() Ref {
	st := &a.st
	if st.hasPending {
		st.hasPending = false
		return st.pending
	}
	if st.issued >= a.total {
		return Ref{Kind: End}
	}
	if st.issued >= st.nextBarrier && st.barriers < a.spec.Barriers {
		st.barriers++
		st.nextBarrier += a.barrGap
		return Ref{Kind: Barrier}
	}

	// Geometric gap of non-memory instructions before the next
	// reference.
	u := st.rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	gap := int64(math.Log(u) / a.logNonRef)
	if gap < 0 {
		gap = 0
	}
	if remaining := a.total - st.issued - 1; gap > remaining {
		gap = remaining
	}
	ref := a.makeRef()
	st.issued += gap + 1 // the reference itself counts as an instruction
	if gap == 0 {
		return ref
	}
	st.pending = ref
	st.hasPending = true
	return Ref{Kind: Instr, N: gap}
}

// makeRef draws one memory reference according to the spec's mix.
func (a *App) makeRef() Ref {
	s := &a.spec
	st := &a.st
	refFrac := s.ReadFrac + s.WriteFrac
	u := st.rng.Float64() * refFrac
	switch {
	case u < s.SharedReadFrac:
		return Ref{Kind: Read, Addr: a.sharedAddr(false), Shared: true}
	case u < s.ReadFrac:
		return Ref{Kind: Read, Addr: a.privateAddr(false)}
	case u < s.ReadFrac+s.SharedWriteFrac:
		return Ref{Kind: Write, Addr: a.sharedAddr(true), Shared: true}
	default:
		return Ref{Kind: Write, Addr: a.privateAddr(true)}
	}
}

// sharedAddr picks a shared address honouring temporal locality, the
// read-mostly segment, migratory objects, and the processor's drifting
// partition window (SPLASH-style per-processor work assignment: shared
// writes concentrate in the window, reads mix the window with the
// read-mostly data and other processors' partitions).
func (a *App) sharedAddr(write bool) uint64 {
	s := &a.spec
	st := &a.st

	// Migratory objects: the processor sweeps the object array in
	// bursts (an Mp3d particle move touches one particle's fields many
	// times, then the sweep advances). Sweeps start at per-processor
	// offsets and advance with instruction progress, so an object
	// written by this processor in one pass is written by another
	// later: ownership migrates, and — crucially for the ECP — objects
	// checkpointed mid-sweep are rarely rewritten by the same node
	// within the next interval.
	if s.Migratory > 0 && st.rng.Bool(s.Migratory) {
		objects := int64(s.MigratoryObjects)
		pos := int64(0)
		if s.MigratoryPhase > 0 {
			pos = st.issued / s.MigratoryPhase
		}
		share := objects / int64(a.procs)
		if share < 1 {
			share = 1
		}
		obj := (int64(a.proc)*share + pos) % objects
		item := a.roItems + obj%a.rwItems
		return a.itemAddr(item, st.rng.Intn(itemBytes))
	}

	if st.rng.Bool(s.Locality) {
		if write {
			return st.lastSharedW
		}
		return st.lastSharedR
	}

	var item int64
	switch {
	case !write && a.roItems > 0 && st.rng.Bool(s.ReadOnlyFrac):
		item = st.rng.Int63n(a.roItems)
	case write && st.rng.Bool(pOwnPartition):
		item = a.windowItem(st)
	case !write && st.rng.Bool(pReadOwn):
		item = a.windowItem(st)
	default:
		// True sharing / communication: anywhere in the rw region.
		item = a.roItems + st.rng.Int63n(a.rwItems)
	}
	addr := a.itemAddr(item, st.rng.Intn(itemBytes))
	if write {
		st.lastSharedW = addr
	} else {
		st.lastSharedR = addr
	}
	return addr
}

// windowItem picks an item in the processor's current partition window.
// The window slides deterministically with instruction progress, so the
// modified-data footprint per recovery-point interval grows sublinearly
// with the interval (the paper's Cholesky moves 8x the data per
// establishment at 400/s versus 5/s while total data drops 10 to 1.2 MB).
func (a *App) windowItem(st *appState) int64 {
	step := st.issued / a.drift
	span := a.partItems - a.winItems
	off := int64(0)
	if span > 0 {
		off = (step * a.slide) % (span + 1)
	}
	return a.partStart + off + st.rng.Int63n(a.winItems)
}

func (a *App) itemAddr(item int64, off int) uint64 {
	return a.sharedLo + uint64(item)*itemBytes + uint64(off&^7)
}

// privateAddr picks an address in the processor's private region: mostly
// inside a small hot window (loop and stack locality) that drifts through
// the region, occasionally anywhere (cold data).
func (a *App) privateAddr(write bool) uint64 {
	st := &a.st
	if a.privLen == 0 {
		return a.privBase
	}
	if st.rng.Bool(a.spec.Locality) {
		if write {
			return st.lastPrivateW
		}
		return st.lastPrivateR
	}
	pHot := pHotPrivateRead
	if write {
		pHot = pHotPrivateWrite
	}
	var off uint64
	hot := uint64(a.hotBytes)
	if st.rng.Bool(pHot) && a.privLen > hot {
		step := uint64(st.issued / a.drift)
		span := a.privLen - hot
		start := (step * (hot / 4)) % (span + 1)
		off = start + uint64(st.rng.Intn(int(hot)))
	} else {
		off = st.rng.Uint64() % a.privLen
	}
	addr := a.privBase + off&^7
	if write {
		st.lastPrivateW = addr
	} else {
		st.lastPrivateR = addr
	}
	return addr
}
