package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"coma/internal/config"
	"coma/internal/obs/receipt"
	"coma/internal/proto"
	"coma/internal/server"
	"coma/internal/stats"
)

// golden.json holds, for seed 1, the SHA-256 of each sim run's
// canonical result payload (server.MarshalResult), keyed by
// goldenKey. Regenerate it only with
//
//	go test ./comaperf -run Golden -update
//
//go:embed testdata/golden.json
var goldenJSON []byte

func goldenKey(workload, app string, smoke bool) string {
	if smoke {
		return "smoke/" + workload + "/" + app
	}
	return workload + "/" + app
}

func loadGolden() (map[string]string, error) {
	g := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// simIdentities are the run identities of one sim round: one per app,
// each with its own seed derived from -seed.
func simIdentities(cfg simConfig, seed uint64) ([]config.RunIdentity, error) {
	if cfg.seedPool > 0 {
		seed = (seed+cfg.seedPool-1)%cfg.seedPool + 1
	}
	ids := make([]config.RunIdentity, len(simApps))
	for i, app := range simApps {
		spec := server.JobSpec{
			App: app, Nodes: cfg.nodes, Protocol: cfg.protocol, Scale: cfg.scale,
			CheckpointHz: cfg.hz, Seed: deriveSeed(seed, streamSim, i),
			Failures: cfg.faults[app], MaxCycles: cfg.maxCycles,
		}
		id, err := spec.Identity("")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app, err)
		}
		ids[i] = id
	}
	return ids, nil
}

// simRun is one simulation of a sim round.
type simRun struct {
	payload []byte
	res     *stats.Run
	build   time.Duration
	use     spent // Machine.Run plus MarshalResult
	heap    uint64
	alive   []bool // per node, after the run
	profile []byte
}

// runSim builds and runs one identity. Build time is set-up; the timed
// phase is Machine.Run plus server.MarshalResult. With traced set, the
// timed phase runs under the CPU profiler and is recorded as spans.
func runSim(id config.RunIdentity, traced bool, spans *spanLog, job string) (simRun, error) {
	var out simRun
	runtime.GC()
	t0 := time.Now()
	m, err := server.BuildMachine(id, nil)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	out.build = t1.Sub(t0)

	var prof *profiler
	if traced {
		if prof, err = startProfile(); err != nil {
			return out, err
		}
	}
	u := readUsage()
	res, err := m.Run()
	t2 := time.Now()
	if err == nil {
		out.payload, err = server.MarshalResult(res)
	}
	out.use = since(u)
	t3 := time.Now()
	if prof != nil {
		out.profile = prof.stop()
	}
	if err != nil {
		return out, err
	}
	out.res = res
	out.alive = make([]bool, id.Arch.Nodes)
	for n := range out.alive {
		out.alive[n] = m.Coordinator().Alive(proto.NodeID(n))
	}
	if traced {
		root := spans.add(0, "run", job, t0, t3)
		spans.add(root, "build", job, t0, t1)
		spans.add(root, "run", job, t1, t2)
		spans.add(root, "marshal", job, t2, t3)
	} else {
		// The machine is still reachable here, so this is the live heap
		// of a finished simulation, however the runtime paced its GCs.
		out.heap = liveHeapNow()
	}
	runtime.KeepAlive(m)
	return out, nil
}

// checkFaults confirms every planned failure fired: one rollback per
// failure, and exactly the permanently failed nodes are gone. A failure
// cycle past the end of a run would otherwise silently never fire.
func checkFaults(id config.RunIdentity, res *stats.Run, alive []bool) error {
	if got, want := res.Ckpt.Recoveries, int64(len(id.Failures)); got != want {
		return fmt.Errorf("%d rollbacks, want %d (a planned failure did not fire)", got, want)
	}
	lost := make(map[int]bool)
	for _, f := range id.Failures {
		if f.Permanent {
			lost[f.Node] = true
		}
	}
	for n := 0; n < id.Arch.Nodes; n++ {
		if alive[n] == lost[n] {
			return fmt.Errorf("node %d alive=%v after the run, want %v", n, alive[n], !lost[n])
		}
	}
	return nil
}

// simRound runs the four apps of a sim workload once, serially.
func (b *bench) simRound(w workload, traced bool) round {
	cfg := w.sim[b.size()]
	var r round
	ids, err := simIdentities(cfg, b.seed)
	if err != nil {
		b.fail("identities: %v", err)
		return r
	}
	smp := startSampler()
	for i, id := range ids {
		app := simApps[i]
		b.attempted++
		run, err := runSim(id, traced, b.spans, fmt.Sprintf("%s#%d", app, b.roundNo))
		r.setup += run.build
		r.builds = append(r.builds, run.build)
		if err != nil {
			b.fail("%s: %v", app, err)
			r.coldLat = append(r.coldLat, inf)
			continue
		}
		r.use.add(run.use)
		r.jobs++
		r.coldLat = append(r.coldLat, ms(run.use.wall))
		r.heap = max(r.heap, run.heap)
		if run.profile != nil {
			r.profiles = append(r.profiles, run.profile)
		}
		r.counts.add(run.res)
		if err := b.checkSimPayload(w.name, app, run.payload); err != nil {
			b.fail("%s: %v", app, err)
			continue
		}
		if len(id.Failures) > 0 {
			if err := checkFaults(id, run.res, run.alive); err != nil {
				b.fail("%s: %v", app, err)
			}
		}
	}
	r.peaks = smp.stop()
	r.heap = max(r.heap, r.peaks.liveHeap)
	return r
}

// checkSimPayload compares a payload with the seed-1 golden digest and
// with the same app's payload in earlier rounds of this run.
func (b *bench) checkSimPayload(workload, app string, payload []byte) error {
	if prev, ok := b.payloads[app]; ok && !bytes.Equal(prev, payload) {
		return fmt.Errorf("payload differs from round 1 (nondeterministic simulation)")
	}
	b.payloads[app] = payload
	if b.seed != 1 {
		return nil
	}
	want, ok := b.golden[goldenKey(workload, app, b.smoke)]
	if !ok {
		return fmt.Errorf("no golden digest (regenerate with go test ./comaperf -run Golden -update)")
	}
	if got := receipt.Digest(payload); got != want {
		return fmt.Errorf("result digest %s, golden %s", got[:12], want[:12])
	}
	return nil
}
