package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// The tracer records spans from the benchmark's own code around each call
// it makes into a layer of the program; nothing inside the program is
// instrumented. A lane is the tracer of one goroutine: its spans nest in a
// stack, so a span's parent is the span open when it began, and every span
// carries the id of the op it belongs to. A nil *lane is the untraced mode:
// every method is a no-op.
//
// Self time is a span's duration minus the durations of its child spans
// (children of one lane never overlap). Spans are aggregated per name as
// they end, and the first maxKeptSpans of each lane are also kept in memory
// and written out when the run ends.

const maxKeptSpans = 50000

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanStat struct {
	N           int
	Total, Self time.Duration
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
}

type openSpan struct {
	id, parent int64
	name       string
	start      time.Duration
	child      time.Duration
}

type lane struct {
	tr      *tracer
	base    int64 // id space of this lane
	nextID  int64
	op      int64
	stack   []openSpan
	spans   []span
	stats   map[string]*spanStat
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane returns a new lane; nil when tr is nil (untraced).
func (tr *tracer) lane() *lane {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	l := &lane{tr: tr, base: int64(len(tr.lanes)+1) << 40, stats: make(map[string]*spanStat)}
	tr.lanes = append(tr.lanes, l)
	return l
}

// newOp starts a new op on the lane: the spans that follow share its id.
func (l *lane) newOp() {
	if l == nil {
		return
	}
	l.nextID++
	l.op = l.base + l.nextID
}

func (l *lane) begin(name string) {
	if l != nil {
		l.beginAt(name, time.Now())
	}
}

// beginAt opens a span that started at a given time, such as the time an
// open-loop request was due.
func (l *lane) beginAt(name string, at time.Time) {
	if l == nil {
		return
	}
	l.nextID++
	var parent int64
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].id
	}
	l.stack = append(l.stack, openSpan{id: l.base + l.nextID, parent: parent, name: name, start: at.Sub(l.tr.t0)})
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	now := time.Since(l.tr.t0)
	n := len(l.stack) - 1
	s := l.stack[n]
	l.stack = l.stack[:n]
	dur := now - s.start
	if n > 0 {
		l.stack[n-1].child += dur
	}
	st := l.stats[s.name]
	if st == nil {
		st = &spanStat{}
		l.stats[s.name] = st
	}
	st.N++
	st.Total += dur
	st.Self += dur - s.child
	if len(l.spans) < maxKeptSpans {
		l.spans = append(l.spans, span{ID: s.id, Parent: s.parent, Op: l.op, Name: s.name, Start: int64(s.start), End: int64(now)})
	} else {
		l.dropped++
	}
}

// stats merges the per-name aggregates of every lane. Call it after every
// lane's goroutine has finished.
func (tr *tracer) stats() map[string]spanStat {
	out := make(map[string]spanStat)
	if tr == nil {
		return out
	}
	for _, l := range tr.lanes {
		for name, st := range l.stats {
			agg := out[name]
			agg.N += st.N
			agg.Total += st.Total
			agg.Self += st.Self
			out[name] = agg
		}
	}
	return out
}

// write stores the kept spans as JSON lines.
func (tr *tracer) write(path string) (kept, dropped int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range tr.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				return 0, 0, err
			}
		}
		kept += len(l.spans)
		dropped += l.dropped
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	return kept, dropped, f.Close()
}

// meanMS is the mean duration of the spans named name, in ms.
func meanMS(st map[string]spanStat, name string) float64 {
	s := st[name]
	if s.N == 0 {
		return 0
	}
	return ms(s.Total) / float64(s.N)
}

// writeSpans writes the kept spans of a traced run next to its report.
func writeSpans(tr *tracer, cfg config, rep *report) error {
	path := fmt.Sprintf("%s/%s-seed%d-spans.jsonl", cfg.out, rep.Workload, cfg.seed)
	kept, dropped, err := tr.write(path)
	if err != nil {
		return err
	}
	rep.note("trace: %d spans written to %s (%d more aggregated only)", kept, path, dropped)
	return nil
}
