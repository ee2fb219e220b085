package machine

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/inspect"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/stats"
)

// inspectCfg is the acceptance-criteria scenario: a 16-node faulted ECP
// run with several recovery points and a transient failure mid-run.
func inspectCfg(t *testing.T) Config {
	t.Helper()
	cfg := baseCfg(16, coherence.ECP)
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = span / 6
	cfg.Failures = []config.FailureEvent{{At: span / 2, Node: 1}}
	return cfg
}

// runUninspected runs cfg traced with no inspection hook installed:
// the baseline the inspected run must match byte for byte.
func runUninspected(t *testing.T, cfg Config) (*stats.Run, []byte) {
	t.Helper()
	rec := obs.NewRecorder(obs.MaskAll)
	cfg.Obs = rec
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// runInspected runs cfg traced with a live-inspection controller
// attached and an optional concurrent driver goroutine.
func runInspected(t *testing.T, cfg Config, sampleEvery int64,
	drive func(ctl *inspect.Controller)) (*stats.Run, []byte) {
	t.Helper()
	rec := obs.NewRecorder(obs.MaskAll)
	cfg.Obs = rec
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := m.NewInspector(sampleEvery)
	var wg sync.WaitGroup
	if drive != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(ctl)
		}()
	}
	r, err := m.Run()
	ctl.Finish()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestInspectedTraceByteIdentical is the tentpole's golden test: a run
// being aggressively inspected — paused, queried across all four views,
// single-stepped, resumed, with the sampling stream followed throughout
// — must produce the same result and a byte-identical JSONL trace as
// the same seed run uninspected. Inspection happens at safe points
// between dispatches and is read-only, so nothing it does (including
// the wall-clock timing of client requests, which varies run to run)
// may leak into dispatch order.
func TestInspectedTraceByteIdentical(t *testing.T) {
	cfg := inspectCfg(t)
	baseRun, baseTrace := runUninspected(t, cfg)

	queried := 0
	inspRun, inspTrace := runInspected(t, cfg, 25_000, func(ctl *inspect.Controller) {
		// Stream follower: replay-then-follow over published samples.
		var lastSeq int64
		go func() {
			for {
				w := ctl.Wake()
				if s := ctl.Latest(); s != nil && s.Seq > lastSeq {
					lastSeq = s.Seq
				}
				select {
				case <-w:
				case <-ctl.Done():
					return
				}
			}
		}()
		// Pause/inspect/step/resume until the run completes.
		for !ctl.Finished() {
			ctl.Pause()
			ctl.Query(func(s inspect.Source) {
				sum := s.InspectSummary()
				if sum.Nodes != 16 {
					t.Errorf("summary reports %d nodes, want 16", sum.Nodes)
				}
				_ = s.InspectQueues()
				for _, nv := range s.InspectNodes() {
					if nv.Frames > 0 && nv.States.Total() == 0 {
						t.Errorf("node %d: %d frames but empty state histogram",
							nv.Node, nv.Frames)
					}
				}
				lv := s.InspectLine(proto.ItemID(queried % 64))
				if lv.Present && lv.Owner < 0 && len(lv.Copies) > 0 {
					// Ownerless-but-present lines are legal mid-transaction;
					// just exercise the path.
					_ = lv
				}
				queried++
			})
			ctl.Step(100)
			ctl.Resume()
		}
	})

	if queried == 0 {
		t.Fatal("driver never completed a query")
	}
	if !bytes.Equal(baseTrace, inspTrace) {
		t.Fatalf("inspected trace differs from uninspected: %d vs %d bytes",
			len(baseTrace), len(inspTrace))
	}
	if !reflect.DeepEqual(baseRun, inspRun) {
		t.Fatal("inspected run's statistics differ from uninspected")
	}
}

// TestInspectViewsReportProtocolState pauses a faulted ECP run mid-span
// and asserts the views carry real protocol content: allocated frames,
// a line with a present directory entry, and (after the first recovery
// point) recovery pairs on two distinct nodes.
func TestInspectViewsReportProtocolState(t *testing.T) {
	cfg := inspectCfg(t)
	rec := obs.NewRecorder(obs.MaskAll)
	cfg.Obs = rec
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := m.NewInspector(0)

	type probe struct {
		frames    int
		present   int
		pairs     int
		histTotal int64
	}
	var got probe
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Let the run get past the first checkpoint, then inspect.
		target := cfg.CheckpointInterval * 2
		for !ctl.Finished() {
			var now int64
			ctl.Query(func(s inspect.Source) { now = s.InspectSummary().SimCycles })
			if now < target {
				ctl.Step(5_000)
				continue
			}
			ctl.Pause()
			ctl.Query(func(s inspect.Source) {
				for _, nv := range s.InspectNodes() {
					got.frames += nv.Frames
					got.histTotal += nv.States.Total()
				}
				for item := proto.ItemID(0); item < 2048; item++ {
					lv := s.InspectLine(item)
					if lv.Present {
						got.present++
					}
					got.pairs += len(lv.RecoveryPairs)
				}
			})
			ctl.Resume()
			return
		}
	}()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ctl.Finish()
	wg.Wait()

	if got.frames == 0 || got.histTotal == 0 {
		t.Errorf("no allocated frames (%d) or state tallies (%d) observed",
			got.frames, got.histTotal)
	}
	if got.present == 0 {
		t.Error("no directory-present line found in the first 2048 items")
	}
	if got.pairs == 0 {
		t.Error("no recovery pairs observed after two checkpoint intervals")
	}
}

// TestInspectHistogramCoversEveryItem: at every sample of an inspected
// ECP run with a transient and a permanent failure, each node's state
// histogram tallies every item of its allocated frames, never-written
// items as Invalid, and agrees with the AM's own StateCounts.
func TestInspectHistogramCoversEveryItem(t *testing.T) {
	cfg := inspectCfg(t)
	span := probeCycles(t, cfg)
	cfg.Failures = append(cfg.Failures, config.FailureEvent{At: span * 3 / 4, Node: 9, Permanent: true})
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := int64(cfg.Arch.ItemsPerPage())
	ctl := m.NewInspector(span / 40)
	var last int64
	samples, written := 0, 0
	check := func(s *inspect.Sample) {
		samples++
		for _, nv := range s.Nodes {
			if got, want := nv.States.Total(), int64(nv.Frames)*per; got != want {
				t.Fatalf("sample %d node %d: histogram tallies %d items, want %d (%d frames)",
					s.Seq, nv.Node, got, want, nv.Frames)
			}
			if nv.States[proto.Invalid] < nv.States.Total() {
				written++
			}
			counts := m.ams[nv.Node].StateCounts()
			for st := range proto.NumStates {
				if int64(counts[st]) != nv.States[st] {
					t.Fatalf("sample %d node %d: %v tallied %d, StateCounts says %d",
						s.Seq, nv.Node, st, nv.States[st], counts[st])
				}
			}
		}
	}
	m.eng.SetSafePointHook(func(now int64) {
		ctl.AtSafePoint(now)
		if s := ctl.Latest(); s != nil && s.Seq != last {
			last = s.Seq
			check(s)
		}
	})
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	ctl.Finish()
	if r.Ckpt.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", r.Ckpt.Recoveries)
	}
	if samples < 30 || written == 0 {
		t.Fatalf("%d samples, %d node views with written items: the run was not observed", samples, written)
	}
}
