// DSVM: the paper closes by noting the approach "can be used to
// implement a recoverable distributed shared virtual memory on top of a
// multicomputer or a network of workstations" — which the authors did, on
// the Intel Paragon and under Chorus. This example runs the very same
// protocol engine with software-DSM parameters: the coherence unit is a
// 4 KB virtual page, latencies are software-stack sized, and recovery
// points, rollback and reconfiguration work unchanged.
package main

import (
	"fmt"
	"log"

	"coma"
	"coma/internal/coherence"
	"coma/internal/machine"
	"coma/internal/workload"
)

func main() {
	app := workload.Spec{
		Name:            "dsvm-app",
		Instructions:    4_000_000,
		ReadFrac:        0.20,
		WriteFrac:       0.08,
		SharedReadFrac:  0.05,
		SharedWriteFrac: 0.02,
		SharedBytes:     2 << 20,
		PrivateBytes:    256 << 10,
		ReadOnlyFrac:    0.5,
		Locality:        0.6,
		// Page-granularity sharing wants page-granularity locality:
		// coarse windows keep false sharing (the DSVM curse) sane.
		HotBytes:    16 << 10,
		WindowBytes: 32 << 10,
		DriftInstr:  20_000,
		Barriers:    4,
	}

	run := func(protocol coherence.Protocol, hz float64, failures []coma.Failure) *coma.Result {
		arch := coma.DSVMArch(8)
		m, err := machine.New(machine.Config{
			Arch:         arch,
			Protocol:     protocol,
			App:          app,
			Seed:         13,
			CheckpointHz: hz,
			Failures:     failures,
			Oracle:       true,
		})
		if err != nil {
			log.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	std := run(coherence.Standard, 0, nil)
	ecp := run(coherence.ECP, 5, nil)
	over := coma.Decompose(std, ecp)
	fmt.Println("recoverable DSVM on 8 workstations (4 KB pages, software latencies)")
	fmt.Printf("  plain DSVM:        %d cycles (%.0f ms)\n", std.Cycles, 1e3*std.Seconds(std.Cycles))
	fmt.Printf("  recoverable DSVM:  %d cycles, %d recovery points\n", ecp.Cycles, ecp.Ckpt.Established)
	fmt.Printf("  overhead:          %.1f%% (create %.1f%%, commit %.1f%%, pollution %.1f%%)\n",
		100*over.OverheadFraction(), 100*over.CreateFraction(),
		100*over.CommitFraction(), 100*over.PollutionFraction())

	// And it recovers: lose a workstation mid-run.
	fr := run(coherence.ECP, 5, []coma.Failure{{At: std.Cycles / 2, Node: 3}})
	fmt.Printf("\nwith workstation 3 crashing mid-run: %d rollback(s), finished in %d cycles,\n",
		fr.Ckpt.Recoveries, fr.Cycles)
	fmt.Println("every page read verified against the oracle through the rollback.")
}
