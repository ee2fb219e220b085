package experiments

import (
	"fmt"

	"coma/internal/am"
	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/directory"
	"coma/internal/machine"
	"coma/internal/mesh"
	"coma/internal/proto"
	"coma/internal/report"
	"coma/internal/sim"
	"coma/internal/stats"
	"coma/internal/workload"
)

// Table1 reproduces the paper's Table 1: the new injections introduced by
// the ECP, with occurrence counts measured on a uniform-sharing stress
// workload run with deliberately shrunken attraction memories so the
// replacement-triggered causes also fire (in the paper's own runs, as in
// the main campaigns here, the applications fit and capacity
// replacements never occur).
func (s *Suite) Table1() (*report.Table, error) {
	app := workload.Uniform()
	if s.P.TargetInstructions > 0 {
		app = app.Scale(float64(s.P.TargetInstructions) / float64(app.Instructions) / 4)
	}
	app.SharedBytes = 2 << 20
	hz := s.P.Freqs[len(s.P.Freqs)-1] // highest frequency: most recovery data
	arch := config.KSR1(s.P.Nodes)
	arch.AMSize = 1 << 20 // 64 frames per node: the working set cannot fit
	cfg := machine.Config{
		Arch:         arch,
		Protocol:     coherence.ECP,
		App:          app,
		Seed:         s.P.Seed,
		CheckpointHz: hz,
		Oracle:       true,
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: table1: %w", err)
	}
	r, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: table1: %w", err)
	}
	total := r.Total()
	t := &report.Table{
		ID:    "table1",
		Title: "New injections introduced by the ECP",
		Note: fmt.Sprintf("counts measured on %s under memory pressure (1 MB AMs), %d nodes, %g recovery points/s",
			app.Name, s.P.Nodes, hz),
		Columns: []string{"cause", "local copy state", "action", "count"},
	}
	rows := []struct {
		cause  proto.InjectCause
		local  string
		action string
		why    string
	}{
		{proto.InjectReplaceSharedCK, "Shared-CK", "Injection", "Replacement"},
		{proto.InjectReplaceInvCK, "Inv-CK", "Injection", "Replacement"},
		{proto.InjectReadInvCK, "Inv-CK", "Injection + read miss", "Read access"},
		{proto.InjectWriteInvCK, "Inv-CK", "Injection + write miss", "Write access"},
		{proto.InjectWriteSharedCK, "Shared-CK", "Injection + write miss", "Write access"},
	}
	for _, row := range rows {
		t.AddRow(row.why, row.local, row.action, total.Injections[row.cause])
	}
	return t, nil
}

// Table2 reproduces the read-miss latency calibration: the time to
// satisfy a read miss from each level of the memory hierarchy, measured
// on an idle 4x4 mesh exactly as Table 2 specifies.
func (s *Suite) Table2() (*report.Table, error) {
	arch := config.KSR1(16)
	t := &report.Table{
		ID:      "table2",
		Title:   "Read miss latency times",
		Note:    "idle 4x4 mesh, no contention; paper: 1 / 18 / 116 / 124 cycles",
		Columns: []string{"read miss access", "cycles", "paper"},
	}
	t.AddRow("fill from cache", arch.CacheAccess, int64(1))

	measure := func(requester proto.NodeID) (int64, error) {
		eng := sim.New()
		defer eng.Shutdown()
		net := mesh.New(eng, arch)
		dir := directory.New(arch.Nodes)
		ams := make([]*am.AM, arch.Nodes)
		counters := make([]*stats.Node, arch.Nodes)
		for i := range ams {
			ams[i] = am.New(arch, proto.NodeID(i))
			counters[i] = &stats.Node{}
		}
		coh := coherence.New(eng, arch, coherence.Standard, coherence.Options{},
			net, dir, ams, counters, nopCacheOps{})
		var lat int64
		eng.Spawn("probe", func(p *sim.Process) {
			// Item 0 homes at node 0; node 0 owns it. Warm the
			// requester's page frame with a neighbouring item first.
			coh.WriteItem(p, 0, 0, 7)
			if requester != 0 {
				coh.ReadItem(p, requester, 1)
				coh.ReadItem(p, 0, 1)
			}
			start := p.Now()
			coh.ReadItem(p, requester, 0)
			lat = p.Now() - start
		})
		if _, err := eng.Run(); err != nil {
			return 0, err
		}
		return lat, nil
	}

	local, err := measure(0)
	if err != nil {
		return nil, err
	}
	t.AddRow("fill from local AM", local, int64(18))
	oneHop, err := measure(1) // node 1 is one hop from node 0
	if err != nil {
		return nil, err
	}
	t.AddRow("fill from remote AM (1 hop)", oneHop, int64(116))
	twoHop, err := measure(2) // node 2 is two hops from node 0
	if err != nil {
		return nil, err
	}
	t.AddRow("fill from remote AM (2 hops)", twoHop, int64(124))
	return t, nil
}

type nopCacheOps struct{}

func (nopCacheOps) InvalidateItem(proto.NodeID, proto.ItemID) {}
func (nopCacheOps) DowngradeItem(proto.NodeID, proto.ItemID)  {}

// Table3 reproduces the simulated-application characteristics: reference
// mix fractions measured by draining each synthetic generator, against
// the paper's Table 3 percentages.
func (s *Suite) Table3() (*report.Table, error) {
	t := &report.Table{
		ID:    "table3",
		Title: "Simulated applications characteristics",
		Note:  "measured on the synthetic generators; paper percentages in parentheses",
		Columns: []string{"application", "instructions", "reads", "writes",
			"shared reads", "shared writes"},
	}
	for _, spec := range s.P.Apps {
		app := s.P.scaled(spec)
		var mix workload.Tally
		for proc := 0; proc < s.P.Nodes; proc++ {
			g := app.NewApp(proc, s.P.Nodes, s.P.Seed)
			for r := g.Next(); r.Kind != workload.End; r = g.Next() {
				mix.Add(r)
			}
		}
		pct := func(n int64, paper float64) string {
			return fmt.Sprintf("%.1f%% (%.1f%%)", 100*float64(n)/float64(mix.Instructions), 100*paper)
		}
		t.AddRow(app.Name,
			fmt.Sprintf("%.1fM", float64(mix.Instructions)/1e6),
			pct(mix.Reads, spec.ReadFrac),
			pct(mix.Writes, spec.WriteFrac),
			pct(mix.SharedReads, spec.SharedReadFrac),
			pct(mix.SharedWrites, spec.SharedWriteFrac))
	}
	return t, nil
}
