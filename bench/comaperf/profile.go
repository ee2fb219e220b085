package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file decodes the gzip-compressed profile.proto that
// runtime/pprof writes and charges every CPU sample to one layer of the
// repository. Only the fields attribution needs are read: samples
// (location ids and values), locations (their inlined line entries),
// functions (their names) and the string table.

// cpuLayers are the layers CPU is charged to, in reporting order. Their
// shares sum to one; sim_handoff is reported beside them as the part of
// sim spent parking goroutines and handing off over channels.
var cpuLayers = []string{
	"sim", "mesh", "coherence", "am", "cache", "directory", "node",
	"workload", "core", "machine", "config_proto", "obs", "txnview",
	"receipt", "server", "client", "cluster", "bench", "net_http",
	"runtime_gc", "runtime_sched", "runtime_other",
}

// packageLayers maps repository packages to layers. Packages not listed
// here (none appear in the measured paths today) count as machine.
var packageLayers = map[string]string{
	"coma/internal/sim":                "sim",
	"coma/internal/mesh":               "mesh",
	"coma/internal/coherence":          "coherence",
	"coma/internal/am":                 "am",
	"coma/internal/cache":              "cache",
	"coma/internal/directory":          "directory",
	"coma/internal/node":               "node",
	"coma/internal/workload":           "workload",
	"coma/internal/core":               "core",
	"coma/internal/fault":              "core",
	"coma/internal/machine":            "machine",
	"coma/internal/inspect":            "machine",
	"coma/internal/config":             "config_proto",
	"coma/internal/proto":              "config_proto",
	"coma/internal/stats":              "config_proto",
	"coma/internal/obs":                "obs",
	"coma/internal/obs/txnview":        "txnview",
	"coma/internal/obs/receipt":        "receipt",
	"coma/internal/server":             "server",
	"coma/internal/experiments/runner": "server",
	"coma/internal/server/client":      "client",
	"coma/internal/cluster":            "cluster",
	"main":                             "bench",
	"coma/bench/comaperf":              "bench",
}

// funcPackage returns the import path of a symbol name such as
// "coma/internal/server.(*Server).execute" or "net/http.(*conn).serve".
func funcPackage(name string) string {
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func repoLayer(pkg string) string {
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	if pkg == "coma" || strings.HasPrefix(pkg, "coma/") {
		return "machine"
	}
	return ""
}

func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" || fn == "runtime._GC"
}

var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.goexit0": true, "runtime.gosched_m": true,
	"runtime.goschedImpl": true, "runtime.stopm": true, "runtime.startm": true,
	"runtime.wakep": true, "runtime.sysmon": true, "runtime.netpoll": true,
	"runtime.handoffp": true, "runtime.exitsyscall": true, "runtime.entersyscall": true,
	"runtime.goready": true, "runtime.ready": true, "runtime.gopark": true,
	"runtime.mstart": true, "runtime.notesleep": true, "runtime.notewakeup": true,
	"runtime.stealWork": true, "runtime.checkTimers": true, "runtime.newproc": true,
	"runtime.execute": true, "runtime.resetspinning": true,
}

// isHandoffFrame reports runtime frames that park, wake or schedule a
// goroutine or move a value through a channel.
func isHandoffFrame(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	for _, s := range []string{"park", "chan", "sched", "ready", "select", "mcall", "futex"} {
		if strings.Contains(fn, s) {
			return true
		}
	}
	return false
}

// attribute charges one sample, given its frames leaf first:
//  1. a GC worker or assist frame anywhere: runtime_gc;
//  2. else the innermost repository frame's layer, which takes the map,
//     malloc and JSON work that package called;
//  3. else net/http, net, internal/poll or syscall frames: net_http;
//  4. else scheduler frames: runtime_sched;
//  5. else runtime_other.
//
// handoff marks sim samples with park, channel or scheduler frames
// beneath the sim frame.
func attribute(stack []string) (layer string, handoff bool) {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime_gc", false
		}
	}
	for i, fn := range stack {
		if l := repoLayer(funcPackage(fn)); l != "" {
			if l == "sim" {
				for _, below := range stack[:i] {
					handoff = handoff || isHandoffFrame(below)
				}
			}
			return l, handoff
		}
	}
	for _, fn := range stack {
		switch funcPackage(fn) {
		case "net/http", "net", "internal/poll", "syscall":
			return "net_http", false
		}
	}
	for _, fn := range stack {
		if schedFrames[fn] {
			return "runtime_sched", false
		}
	}
	return "runtime_other", false
}

// cpuSplit is CPU time by layer, summed over one or more profiles.
type cpuSplit struct {
	byLayer map[string]int64 // nanoseconds of CPU samples
	handoff int64            // the part of byLayer["sim"] that is handoff
	total   int64
	samples int
}

func newCPUSplit() *cpuSplit { return &cpuSplit{byLayer: make(map[string]int64)} }

// share is the fraction of sampled CPU charged to layer ("sim_handoff"
// for the handoff subset of sim).
func (c *cpuSplit) share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	if layer == "sim_handoff" {
		return float64(c.handoff) / float64(c.total)
	}
	return float64(c.byLayer[layer]) / float64(c.total)
}

// addProfile decodes a gzip-compressed CPU profile and charges its
// samples.
func (c *cpuSplit) addProfile(gz []byte) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	// CPU profiles carry [samples count, cpu nanoseconds]; weigh by time.
	vi := int(p.sampleTypes) - 1
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return errors.New("profile: sample without a value")
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.funcName(fid))
			}
		}
		layer, handoff := attribute(stack)
		w := s.values[vi]
		c.byLayer[layer] += w
		if handoff {
			c.handoff += w
		}
		c.total += w
		c.samples++
	}
	return nil
}

type rawSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes int64 // count of sample_type entries
	samples     []rawSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.functions[id]; ok && i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return "?"
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 1 && wire == 2:
			p.sampleTypes++
		case field == 2 && wire == 2:
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case field == 4 && wire == 2:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2:
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case field == 5 && wire == 2:
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				if w == 0 {
					switch f {
					case 1:
						id = v
					case 2:
						name = int64(v)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case field == 6 && wire == 2:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints reads a repeated varint field in either its packed
// (length-delimited) or unpacked form.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	if wire != 2 {
		return fmt.Errorf("profile: repeated varint with wire type %d", wire)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// profiler captures one CPU profile in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}
