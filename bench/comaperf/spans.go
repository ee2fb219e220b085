package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Spans of one job share
// Job; Parent is the id of the span that caused this one (0: a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Start  float64 `json:"start_ms"` // since the benchmark started
	End    float64 `json:"end_ms"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil
// *spanLog records nothing, so call sites need no guard.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int
	roots map[string]int // job -> id reserved for its root span
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), roots: make(map[string]int)}
}

// add records a span and returns its id.
func (l *spanLog) add(parent int, name, job string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.put(l.next, parent, name, job, start, end)
	return l.next
}

// reserve allocates the id of a job's root span before the job starts,
// so spans recorded inside the program (the wrapped runner) can name it
// as their parent.
func (l *spanLog) reserve(job string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.roots[job] = l.next
	return l.next
}

// finish records a job's root span under its reserved id.
func (l *spanLog) finish(id int, name, job string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.roots, job)
	l.put(id, 0, name, job, start, end)
}

// rootOf returns the reserved root span id of an in-flight job (0 if
// none).
func (l *spanLog) rootOf(job string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.roots[job]
}

func (l *spanLog) put(id, parent int, name, job string, start, end time.Time) {
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: ms(start.Sub(l.t0)), End: ms(end.Sub(l.t0)),
	})
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
