package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one host-time interval around a call the benchmark makes into
// a public function of the program. Parent 0 is a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory for the traced pass; they are written
// out when the benchmark ends. A nil *spanLog records nothing, so the
// untraced passes pay one branch per call site. It is used from one
// goroutine only.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.origin)
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(l.spans)
}

// end closes the span with the given id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Since(l.origin)
}

// add records a finished span whose bounds were measured as offsets
// from base (used for ops timed inside a parallel call) and returns its
// id.
func (l *spanLog) add(name string, parent int, base time.Time, start, end time.Duration) int {
	if l == nil {
		return 0
	}
	off := base.Sub(l.origin)
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: off + start, End: off + end})
	return len(l.spans)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	N     int
	Total time.Duration
	Self  time.Duration
}

// summary folds spans by name. A span's self time is its duration minus
// the part of it that its children cover; children of one parent may
// overlap (parallel ops), so their union is subtracted, not their sum.
func (l *spanLog) summary() []spanStat {
	if l == nil {
		return nil
	}
	kids := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := make(map[string]*spanStat)
	var order []string
	for _, s := range l.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		st.N++
		st.Total += d
		st.Self += d - covered(kids[s.ID], s.Start, s.End)
	}
	out := make([]spanStat, 0, len(order))
	for _, name := range order {
		out = append(out, *by[name])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(children []span, lo, hi time.Duration) time.Duration {
	sort.Slice(children, func(a, b int) bool { return children[a].Start < children[b].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, c := range children {
		s, e := max(c.Start, lo), min(c.End, hi)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	return bw.Flush()
}
