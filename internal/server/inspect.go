package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"coma/internal/inspect"
	"coma/internal/proto"
)

// inspectController resolves {id} to a running job's live-inspection
// controller, answering 404/409 itself on failure.
func (s *Server) inspectController(w http.ResponseWriter, r *http.Request) (*job, *inspect.Controller) {
	j := s.lookup(w, r)
	if j == nil {
		return nil, nil
	}
	s.mu.Lock()
	ctl, state := j.ctl, j.state
	s.mu.Unlock()
	if ctl == nil {
		s.respondError(w, http.StatusConflict,
			fmt.Errorf("job is %s; inspection requires a running job", state))
		return nil, nil
	}
	return j, ctl
}

// handleInspect serves GET /v1/jobs/{id}/inspect?view=line|node|queues|summary.
// The query runs at the simulation's next safe point; the response is
// the view struct as JSON. view=line additionally needs addr= (byte
// address; 0x-prefixed hex accepted) or item= (item id).
func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	j, ctl := s.inspectController(w, r)
	if ctl == nil {
		return
	}
	view := r.URL.Query().Get("view")
	if view == "" {
		view = "summary"
	}
	var out any
	switch view {
	case "line":
		item, err := lineParam(r, j)
		if err != nil {
			s.respondError(w, http.StatusBadRequest, err)
			return
		}
		var lv inspect.LineView
		ctl.Query(func(src inspect.Source) { lv = src.InspectLine(item) })
		out = lv
	case "node":
		var nv []inspect.NodeView
		ctl.Query(func(src inspect.Source) { nv = src.InspectNodes() })
		out = nv
	case "queues":
		var qv inspect.QueuesView
		ctl.Query(func(src inspect.Source) { qv = src.InspectQueues() })
		out = qv
	case "summary":
		var sv inspect.SummaryView
		ctl.Query(func(src inspect.Source) { sv = src.InspectSummary() })
		sv.Finished = ctl.Finished()
		out = sv
	default:
		s.respondError(w, http.StatusBadRequest,
			fmt.Errorf("unknown view %q (want line, node, queues or summary)", view))
		return
	}
	s.respondJSON(w, http.StatusOK, out)
}

// lineParam resolves the inspected item from item= (item id) or addr=
// (byte address, divided by the job's item size).
func lineParam(r *http.Request, j *job) (proto.ItemID, error) {
	if v := r.URL.Query().Get("item"); v != "" {
		item, err := strconv.ParseInt(v, 0, 32)
		if err != nil || item < 0 {
			return 0, fmt.Errorf("bad item %q", v)
		}
		return proto.ItemID(item), nil
	}
	v := r.URL.Query().Get("addr")
	if v == "" {
		return 0, errors.New("view=line needs addr= (byte address) or item= (item id)")
	}
	addr, err := strconv.ParseUint(v, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad addr %q", v)
	}
	return proto.ItemID(addr / uint64(j.identity.Arch.ItemSize)), nil
}

// handleInspectStream serves GET /v1/jobs/{id}/inspect/stream: an SSE
// stream of sampled snapshots, replay-then-follow — the latest sample
// is sent immediately on connect, then each newer one as published,
// ending with the terminal sample when the run finishes. Disconnecting
// never perturbs the run: the stream only reads published samples.
func (s *Server) handleInspectStream(w http.ResponseWriter, r *http.Request) {
	_, ctl := s.inspectController(w, r)
	if ctl == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.respondError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.met.countHTTP(http.StatusOK)

	var last int64
	emit := func() bool {
		smp := ctl.Latest()
		if smp == nil || smp.Seq <= last {
			return true
		}
		data, err := json.Marshal(smp)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "id: %d\nevent: sample\ndata: %s\n\n", smp.Seq, data)
		flusher.Flush()
		last = smp.Seq
		return true
	}
	for {
		// Fetch the wake channel before reading the latest sample: a
		// sample published in between closes the fetched channel, so the
		// select below wakes immediately instead of missing it.
		wake := ctl.Wake()
		if !emit() {
			return
		}
		select {
		case <-wake:
		case <-ctl.Done():
			emit() // terminal sample (Summary.Finished = true)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// jobGauge is one running job's per-scrape metrics snapshot, read from
// its live-inspection sample. Wall-clock event rates are computed here,
// in the serving layer — simulator snapshots carry sim time only.
type jobGauge struct {
	id           string
	simCycles    int64
	events       int64
	eventsPerSec float64
	reqDepth     int64
	repDepth     int64
}

// jobGaugesLocked snapshots every running job's latest sample and
// computes events/s from the previous scrape. Caller holds s.mu.
func (s *Server) jobGaugesLocked(nowUnixMilli int64) []jobGauge {
	var out []jobGauge
	for _, key := range s.order {
		j := s.jobs[key]
		if j.ctl == nil {
			continue
		}
		smp := j.ctl.Latest()
		if smp == nil {
			continue
		}
		g := jobGauge{
			id:        ShortID(j.id),
			simCycles: smp.Summary.SimCycles,
			events:    smp.Summary.Events,
			reqDepth:  smp.Queues.Request.Inflight,
			repDepth:  smp.Queues.Reply.Inflight,
		}
		if j.scrapeAt > 0 && nowUnixMilli > j.scrapeAt && g.events >= j.scrapeEvents {
			g.eventsPerSec = float64(g.events-j.scrapeEvents) /
				(float64(nowUnixMilli-j.scrapeAt) / 1e3)
		}
		j.scrapeAt, j.scrapeEvents = nowUnixMilli, g.events
		out = append(out, g)
	}
	return out
}
