package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"coma/internal/inspect"
	"coma/internal/proto"
	"coma/internal/server"
)

// runREPL executes the run through server.Execute with an interactive
// inspection loop reading commands from in: pause the run at a safe
// point, query AM lines, ECP state histograms and mesh queues, step a
// bounded number of events, and resume. Inspection is read-only and
// happens between event dispatches, so the run's result and trace are
// identical to a non-interactive run of the same flags (the smoke test
// compares the traces byte for byte).
func runREPL(x server.Execution, in io.Reader, out io.Writer) server.Outcome {
	ctls := make(chan *inspect.Controller, 1)
	x.Inspect = func(ctl *inspect.Controller) { ctls <- ctl }
	done := make(chan server.Outcome, 1)
	go func() {
		done <- server.Execute(x)
		close(ctls)
	}()
	ctl, ok := <-ctls
	if !ok {
		return <-done // the machine was never built
	}

	itemSize := int64(x.Identity.Arch.ItemSize)
	sc := bufio.NewScanner(in)
	fmt.Fprintf(out, "coma repl: %s/%s on %d nodes (type help)\n",
		x.Identity.App, x.Identity.Protocol, x.Identity.Arch.Nodes)
loop:
	for {
		fmt.Fprint(out, "(coma) ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if ctl.Finished() && fields[0] != "quit" && fields[0] != "help" {
			fmt.Fprintln(out, "run finished; queries now read the final state")
		}
		switch fields[0] {
		case "help":
			fmt.Fprint(out, `commands:
  pause            stop the simulation at its next safe point
  step [n]         dispatch n more events (default 1), then pause
  resume           let the simulation run on
  summary          scheduler, queue and checkpoint-phase summary
  node             per-node liveness, frames and ECP state histogram
  queues           mesh occupancy for both subnets
  line <item>      directory entry and AM copies of one item
  addr <byteaddr>  same, addressed in bytes (0x.. accepted)
  quit             resume and run to completion
`)
		case "pause":
			ctl.Pause()
			fmt.Fprintf(out, "paused at cycle %d\n", replNow(ctl))
		case "step":
			n := int64(1)
			if len(fields) > 1 {
				var err error
				if n, err = strconv.ParseInt(fields[1], 0, 64); err != nil || n < 1 {
					fmt.Fprintf(out, "step: bad count %q\n", fields[1])
					continue
				}
			}
			ctl.Step(n)
			fmt.Fprintf(out, "stepped %d event(s), cycle %d\n", n, replNow(ctl))
		case "resume":
			ctl.Resume()
			fmt.Fprintln(out, "resumed")
		case "summary":
			var sv inspect.SummaryView
			ctl.Query(func(s inspect.Source) { sv = s.InspectSummary() })
			printSummary(out, sv, ctl.Finished())
		case "node":
			var nv []inspect.NodeView
			ctl.Query(func(s inspect.Source) { nv = s.InspectNodes() })
			printNodes(out, nv)
		case "queues":
			var qv inspect.QueuesView
			ctl.Query(func(s inspect.Source) { qv = s.InspectQueues() })
			printQueues(out, qv)
		case "line", "addr":
			if len(fields) < 2 {
				fmt.Fprintf(out, "%s: need an argument\n", fields[0])
				continue
			}
			v, err := strconv.ParseInt(fields[1], 0, 64)
			if err != nil || v < 0 {
				fmt.Fprintf(out, "%s: bad argument %q\n", fields[0], fields[1])
				continue
			}
			if fields[0] == "addr" {
				v /= itemSize
			}
			var lv inspect.LineView
			ctl.Query(func(s inspect.Source) { lv = s.InspectLine(proto.ItemID(v)) })
			printLine(out, lv)
		case "quit":
			break loop
		default:
			fmt.Fprintf(out, "unknown command %q (type help)\n", fields[0])
		}
	}
	ctl.Resume()
	fmt.Fprintln(out, "running to completion...")
	return <-done
}

// replNow reads the current simulated time through a safe-point query.
func replNow(ctl *inspect.Controller) int64 {
	var now int64
	ctl.Query(func(s inspect.Source) { now = s.InspectSummary().SimCycles })
	return now
}

func printSummary(out io.Writer, sv inspect.SummaryView, finished bool) {
	fmt.Fprintf(out, "cycle %d, %d events dispatched, %d processes\n",
		sv.SimCycles, sv.Events, sv.Processes)
	fmt.Fprintf(out, "  pending events    %d wheel, %d overflow\n",
		sv.WheelEvents, sv.OverflowEvents)
	fmt.Fprintf(out, "  nodes             %d/%d live, %d directory items (%d locked)\n",
		sv.LiveNodes, sv.Nodes, sv.DirectoryItems, sv.LockedItems)
	ph := sv.Phase
	kind := "checkpoint"
	if ph.Recovery {
		kind = "recovery"
	}
	fmt.Fprintf(out, "  phase             round %d (%s), quiesce %d/%d, phase1 %d/%d, phase2 %d/%d\n",
		ph.Round, kind, ph.QuiesceGot, ph.QuiesceNeed,
		ph.Phase1Got, ph.Phase1Need, ph.Phase2Got, ph.Phase2Need)
	fmt.Fprintf(out, "  recovery points   %d established, %d aborted, %d rollbacks, %d pending failures\n",
		ph.Established, ph.Aborted, ph.Recoveries, ph.PendingFailures)
	if finished {
		fmt.Fprintln(out, "  run finished")
	}
}

func printNodes(out io.Writer, nv []inspect.NodeView) {
	for _, n := range nv {
		live := "live"
		if !n.Alive {
			live = "DOWN"
		}
		var parts []string
		n.States.NonZero(func(s proto.State, c int64) {
			parts = append(parts, fmt.Sprintf("%s=%d", s, c))
		})
		fmt.Fprintf(out, "node %2d  %-4s  %4d frames  %s\n",
			n.Node, live, n.Frames, strings.Join(parts, " "))
	}
}

func printQueues(out io.Writer, qv inspect.QueuesView) {
	for _, sub := range []struct {
		name string
		v    inspect.SubnetView
	}{{"request", qv.Request}, {"reply", qv.Reply}} {
		busy := 0
		for _, b := range append(append([]int64(nil), sub.v.NISendBusy...), sub.v.NIRecvBusy...) {
			if b > 0 {
				busy++
			}
		}
		fmt.Fprintf(out, "%-8s %4d in flight, %d busy links, %d busy injection ports\n",
			sub.name, sub.v.Inflight, sub.v.BusyLinks, busy)
	}
}

func printLine(out io.Writer, lv inspect.LineView) {
	fmt.Fprintf(out, "item %d (page %d, home node %d)\n", lv.Item, lv.Page, lv.Home)
	if !lv.Present {
		fmt.Fprintln(out, "  no directory entry")
		return
	}
	owner := "none"
	if lv.Owner >= 0 {
		owner = strconv.Itoa(lv.Owner)
	}
	sharers := append([]int(nil), lv.Sharers...)
	sort.Ints(sharers)
	fmt.Fprintf(out, "  owner %s, sharers %v\n", owner, sharers)
	for _, cp := range lv.Copies {
		partner := ""
		if cp.Partner >= 0 {
			partner = fmt.Sprintf("  partner %d", cp.Partner)
		}
		fmt.Fprintf(out, "  node %2d  %-12s value %#x%s\n", cp.Node, cp.State, cp.Value, partner)
	}
	for _, pr := range lv.RecoveryPairs {
		fmt.Fprintf(out, "  recovery pair on nodes %d and %d\n", pr[0], pr[1])
	}
}
