// Package config holds the architectural parameters of the simulated
// machine. The default preset reproduces the paper's KSR1-derived
// configuration (§4.2.2): 20 MHz nodes, a sectored 256 KB cache, an 8 MB
// 16-way attraction memory with 16 KB pages and 128-byte items, and a
// worm-hole routed 2-D mesh with 32-bit flits and a 1-cycle fall-through,
// calibrated so the uncontended read-miss latencies match Table 2 exactly.
package config

import (
	"fmt"

	"coma/internal/proto"
)

// Arch is the full set of architecture parameters for one simulation.
// All times are in processor cycles, all sizes in bytes.
type Arch struct {
	// Nodes is the number of processing nodes. The mesh dimensions are
	// derived: the smallest near-square mesh with at least Nodes slots.
	Nodes int

	// ClockHz is the processor clock, used only to convert recovery-point
	// frequencies (per second) and throughput (bytes/second) to cycles.
	ClockHz int64

	// Cache geometry (per node).
	CacheSize     int // total bytes (256 KB)
	CacheLineSize int // bytes (64)
	CacheSectors  int // lines per sector (2 KB sector / 64 B line = 32)
	CacheWays     int // associativity (8)

	// Attraction memory geometry (per node).
	AMSize   int // total bytes (8 MB)
	PageSize int // allocation unit (16 KB)
	ItemSize int // coherence unit (128)
	AMWays   int // page associativity (16)

	// AnchorFrames is the number of irreplaceable page frames statically
	// reserved per touched page so injections and recovery replication
	// always find room (4 in the ECP study, 1 in a KSR1-like standard
	// machine).
	AnchorFrames int

	// Timing parameters, calibrated against Table 2 (see DESIGN.md §4.7).
	CacheAccess    int64 // cache hit (1)
	AMAccess       int64 // local AM fill / miss detect / install (18)
	MemTransfer    int64 // AM-to-network-controller item transfer (20)
	DirLookup      int64 // localisation-pointer / directory lookup (2)
	NISend         int64 // network-interface send overhead (4)
	NIRecv         int64 // network-interface receive overhead (4)
	HopLatency     int64 // per-hop header latency (4; includes fall-through)
	FlitBytes      int   // flit width (4 = 32 bits)
	CtrlMsgFlits   int   // flits in a control message (2)
	MsgHeaderFlits int   // header flits prepended to a data message (2)
	InjectAckDelay int64 // ack sent this long after item reception (5)

	// AMControllers is the number of independent AM controllers per node
	// (4, "as in the KSR1"). The commit-phase scan is divided across them.
	AMControllers int

	// CommitPageTest and CommitItemTest are the per-frame and per-item
	// costs of the commit-phase scan (1 cycle each, §4.2.2).
	CommitPageTest int64
	CommitItemTest int64

	// CacheFlushPerLine is the cost of writing one dirty cache line back
	// to the local AM when a recovery point quiesces the node.
	CacheFlushPerLine int64
}

// KSR1 returns the paper's simulated architecture with the given node
// count. The ECP's four irreplaceable frames per page are clamped to the
// machine size on very small configurations.
func KSR1(nodes int) Arch {
	anchors := 4
	if nodes < anchors {
		anchors = nodes
	}
	return Arch{
		Nodes:             nodes,
		ClockHz:           20_000_000,
		CacheSize:         256 << 10,
		CacheLineSize:     64,
		CacheSectors:      32, // 2 KB sector / 64 B line
		CacheWays:         8,
		AMSize:            8 << 20,
		PageSize:          16 << 10,
		ItemSize:          128,
		AMWays:            16,
		AnchorFrames:      anchors,
		CacheAccess:       1,
		AMAccess:          18,
		MemTransfer:       20,
		DirLookup:         2,
		NISend:            4,
		NIRecv:            4,
		HopLatency:        4,
		FlitBytes:         4,
		CtrlMsgFlits:      2,
		MsgHeaderFlits:    2,
		InjectAckDelay:    5,
		AMControllers:     4,
		CommitPageTest:    1,
		CommitItemTest:    1,
		CacheFlushPerLine: 4,
	}
}

// Modern returns a preset in the spirit of the paper's reference [10]
// follow-up study: a 5x faster processor relative to the same network, so
// network latencies grow in processor cycles. The paper reports that the
// relative fault-tolerance degradation *decreases* in this regime because
// recovery-data transfers overlap a computation that is itself more often
// stalled on the network.
func Modern(nodes int) Arch {
	a := KSR1(nodes)
	a.ClockHz = 100_000_000
	// The mesh and memory keep their absolute speed: express their
	// latencies in the faster processor's cycles (5x).
	a.AMAccess *= 5
	a.MemTransfer *= 5
	a.NISend *= 5
	a.NIRecv *= 5
	a.HopLatency *= 5
	a.InjectAckDelay *= 5
	a.CacheFlushPerLine *= 5
	return a
}

// DSVM returns parameters for the paper's other concluding claim: the
// same extended protocol implements a recoverable distributed shared
// virtual memory on a multicomputer (the authors built one on the Intel
// Paragon and on Chorus workstations). Coherence moves whole 4 KB pages
// ("items" of page size), latencies reflect a software protocol stack
// rather than a hardware controller, and each node contributes a 32 MB
// page cache.
func DSVM(nodes int) Arch {
	a := KSR1(nodes)
	a.ItemSize = 4 << 10  // the DSVM coherence unit is a virtual page
	a.PageSize = 64 << 10 // allocation unit: 16 coherence pages
	a.AMSize = 32 << 20
	a.CacheLineSize = 64
	// Software path costs (in 20 MHz processor cycles): trap + protocol
	// code dominate, messages are big.
	a.AMAccess = 200    // page-table walk + local map
	a.MemTransfer = 800 // 4 KB copy to the wire
	a.DirLookup = 60    // manager lookup in software
	a.NISend = 300      // send-side protocol stack
	a.NIRecv = 300
	a.HopLatency = 10
	a.InjectAckDelay = 50
	a.CacheFlushPerLine = 4
	return a
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (a Arch) Validate() error {
	if a.Nodes < 1 {
		return fmt.Errorf("config: Nodes = %d, need >= 1", a.Nodes)
	}
	// Every size and way count below is a divisor: check positivity
	// before any modulo can divide by zero.
	for _, g := range []struct {
		name string
		v    int
	}{
		{"CacheSize", a.CacheSize}, {"CacheLineSize", a.CacheLineSize},
		{"CacheSectors", a.CacheSectors}, {"CacheWays", a.CacheWays},
		{"AMSize", a.AMSize}, {"PageSize", a.PageSize},
		{"ItemSize", a.ItemSize}, {"AMWays", a.AMWays},
	} {
		if g.v < 1 {
			return fmt.Errorf("config: %s = %d, need >= 1", g.name, g.v)
		}
	}
	switch {
	case a.PageSize%a.ItemSize != 0:
		return fmt.Errorf("config: PageSize %d not a multiple of ItemSize %d", a.PageSize, a.ItemSize)
	case a.ItemSize%a.CacheLineSize != 0:
		return fmt.Errorf("config: ItemSize %d not a multiple of CacheLineSize %d", a.ItemSize, a.CacheLineSize)
	case a.AMSize%a.PageSize != 0:
		return fmt.Errorf("config: AMSize %d not a multiple of PageSize %d", a.AMSize, a.PageSize)
	case a.CacheSize%a.CacheLineSize != 0 || a.CacheLines()%a.CacheSectors != 0 ||
		(a.CacheLines()/a.CacheSectors)%a.CacheWays != 0:
		// Stepwise rather than one modulo by the product of line size,
		// sector and ways, which can overflow to zero.
		return fmt.Errorf("config: cache geometry %d/%d/%d/%d does not tile",
			a.CacheSize, a.CacheLineSize, a.CacheSectors, a.CacheWays)
	case a.AMFrames()%a.AMWays != 0:
		return fmt.Errorf("config: AM frames %d not divisible by ways %d", a.AMFrames(), a.AMWays)
	case a.AnchorFrames < 1 || a.AnchorFrames > a.Nodes:
		return fmt.Errorf("config: AnchorFrames %d out of range [1,%d]", a.AnchorFrames, a.Nodes)
	case a.AMControllers < 1:
		return fmt.Errorf("config: AMControllers = %d, need >= 1", a.AMControllers)
	case a.FlitBytes < 1:
		return fmt.Errorf("config: FlitBytes = %d, need >= 1", a.FlitBytes)
	case a.ClockHz < 1:
		return fmt.Errorf("config: ClockHz = %d, need >= 1", a.ClockHz)
	}
	return nil
}

// ItemsPerPage returns the number of items in one page (128 in the paper).
func (a Arch) ItemsPerPage() int { return a.PageSize / a.ItemSize }

// AMFrames returns the number of page frames in one attraction memory.
func (a Arch) AMFrames() int { return a.AMSize / a.PageSize }

// AMSets returns the number of page-frame sets in one attraction memory.
func (a Arch) AMSets() int { return a.AMFrames() / a.AMWays }

// CacheLines returns the number of lines in one processor cache.
func (a Arch) CacheLines() int { return a.CacheSize / a.CacheLineSize }

// LinesPerItem returns how many cache lines one AM item spans (2).
func (a Arch) LinesPerItem() int { return a.ItemSize / a.CacheLineSize }

// DataMsgFlits returns the flit count of a message carrying one item.
func (a Arch) DataMsgFlits() int {
	return a.MsgHeaderFlits + (a.ItemSize+a.FlitBytes-1)/a.FlitBytes
}

// MsgFlits returns the flit count for a message of the given kind.
func (a Arch) MsgFlits(kind proto.MsgKind) int {
	if kind.Carry() {
		return a.DataMsgFlits()
	}
	return a.CtrlMsgFlits
}

// MeshDims returns the smallest near-square (w, h) with w*h >= Nodes,
// matching the paper's 9- to 56-node sweeps on 2-D meshes.
func (a Arch) MeshDims() (w, h int) {
	w = 1
	for w*w < a.Nodes {
		w++
	}
	h = (a.Nodes + w - 1) / w
	return w, h
}

// ItemOf returns the item covering the byte address.
func (a Arch) ItemOf(addr uint64) proto.ItemID {
	return proto.ItemID(addr / uint64(a.ItemSize))
}

// PageOf returns the page covering the item.
func (a Arch) PageOf(item proto.ItemID) proto.PageID {
	return proto.PageID(int(item) / a.ItemsPerPage())
}

// PageOfAddr returns the page covering the byte address.
func (a Arch) PageOfAddr(addr uint64) proto.PageID {
	return proto.PageID(addr / uint64(a.PageSize))
}

// FirstItem returns the first item of a page.
func (a Arch) FirstItem(page proto.PageID) proto.ItemID {
	return proto.ItemID(int(page) * a.ItemsPerPage())
}

// ItemIndexInPage returns the item's offset within its page.
func (a Arch) ItemIndexInPage(item proto.ItemID) int {
	return int(item) % a.ItemsPerPage()
}

// CheckpointIntervalCycles converts a recovery-point frequency in
// establishments per second to a period in cycles. Zero frequency means
// "never" and returns 0.
func (a Arch) CheckpointIntervalCycles(perSecond float64) int64 {
	if perSecond <= 0 {
		return 0
	}
	return int64(float64(a.ClockHz) / perSecond)
}
