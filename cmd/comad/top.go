package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"coma/internal/inspect"
	"coma/internal/proto"
	"coma/internal/server"
	"coma/internal/server/client"
)

// top is `comad top`, a terminal live view of a simulation running on a
// comad daemon: it follows the job's sampled-snapshot stream (the same
// safe-point samples the /inspect API serves) and redraws a summary of
// sim time, event rate, queue depths and per-node ECP state histograms.
//
//	comad top                          # most recently submitted running job
//	comad top -job <id>                # a specific job
//	comad top -addr http://host:7700   # a non-default daemon
//	comad top -once                    # print one snapshot and exit
//
// comad top is a pure observer: it only reads published samples, so
// attaching or detaching it never perturbs the simulation (see DESIGN.md
// §11).
func top(args []string) int {
	fs := flag.NewFlagSet("comad top", flag.ExitOnError)
	var (
		addr  = fs.String("addr", "http://localhost:7700", "comad daemon base URL")
		jobID = fs.String("job", "", "job to watch (default: the most recently submitted running job)")
		once  = fs.Bool("once", false, "print a single snapshot and exit (no screen redraws)")
	)
	fs.Parse(args)
	if err := watch(*addr, *jobID, *once); err != nil {
		fmt.Fprintf(os.Stderr, "comad top: %v\n", err)
		return 1
	}
	return 0
}

func watch(addr, jobID string, once bool) error {
	c := client.New(addr)
	ctx := context.Background()
	if jobID == "" {
		var err error
		if jobID, err = pickJob(ctx, c); err != nil {
			return err
		}
	}

	var prev *inspect.Sample
	var prevAt time.Time
	return c.InspectStream(ctx, jobID, func(s inspect.Sample) bool {
		now := time.Now()
		var rate float64
		if prev != nil && now.After(prevAt) {
			rate = float64(s.Summary.Events-prev.Summary.Events) / now.Sub(prevAt).Seconds()
		}
		if !once {
			fmt.Print("\033[H\033[2J") // home + clear
		}
		render(os.Stdout, jobID, s, rate)
		prev, prevAt = &s, now
		if once {
			return false
		}
		return !s.Summary.Finished
	})
}

// pickJob returns the most recently submitted running job.
func pickJob(ctx context.Context, c *client.Client) (string, error) {
	list, err := c.Jobs(ctx)
	if err != nil {
		return "", err
	}
	for i := len(list.Jobs) - 1; i >= 0; i-- {
		if list.Jobs[i].State == server.StateRunning {
			return list.Jobs[i].ID, nil
		}
	}
	return "", fmt.Errorf("no running job on the daemon (submit one, or pass -job)")
}

func render(out *os.File, jobID string, s inspect.Sample, rate float64) {
	short := jobID
	if len(short) > 12 {
		short = short[:12]
	}
	state := "running"
	if s.Summary.Finished {
		state = "finished"
	}
	fmt.Fprintf(out, "job %s  sample %d  %s\n", short, s.Seq, state)
	fmt.Fprintf(out, "cycle %d  events %d", s.Summary.SimCycles, s.Summary.Events)
	if rate > 0 {
		fmt.Fprintf(out, "  (%.0f events/s)", rate)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "pending %d wheel / %d overflow\n",
		s.Summary.WheelEvents, s.Summary.OverflowEvents)
	ph := s.Summary.Phase
	kind := "checkpoint"
	if ph.Recovery {
		kind = "recovery"
	}
	fmt.Fprintf(out, "phase round %d (%s)  established %d  aborted %d  rollbacks %d\n",
		ph.Round, kind, ph.Established, ph.Aborted, ph.Recoveries)
	fmt.Fprintf(out, "queues  request %d in flight (%d busy links)  reply %d in flight (%d busy links)\n",
		s.Queues.Request.Inflight, s.Queues.Request.BusyLinks,
		s.Queues.Reply.Inflight, s.Queues.Reply.BusyLinks)
	fmt.Fprintf(out, "nodes %d/%d live\n", s.Summary.LiveNodes, s.Summary.Nodes)
	for _, n := range s.Nodes {
		live := "live"
		if !n.Alive {
			live = "DOWN"
		}
		var parts []string
		n.States.NonZero(func(st proto.State, c int64) {
			if st != proto.Invalid {
				parts = append(parts, fmt.Sprintf("%s=%d", st, c))
			}
		})
		fmt.Fprintf(out, "  node %2d %-4s %5d frames  %s\n",
			n.Node, live, n.Frames, strings.Join(parts, " "))
	}
}
