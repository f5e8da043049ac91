package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// noSpan is the parent of a root span.
const noSpan int32 = -1

// span is one timed call across a layer boundary. parent links a span to
// the span that caused it, also across goroutines: a fleet round is the
// parent of loop phases running concurrently on the coordinator's workers.
type span struct {
	name       string
	parent     int32
	start, end int64 // nanoseconds since the tracer's epoch
	items      int64 // work units of the call: series returned, points appended
}

// tracer keeps every span in memory; they are written out once, at exit.
// A nil *tracer records nothing, so untraced runs share the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	s := span{name: name, parent: parent, start: int64(time.Since(t.epoch)), end: -1}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// end closes span id, recording the work units it handled.
func (t *tracer) end(id int32, items int64) {
	if t == nil || id == noSpan {
		return
	}
	e := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = e
	t.spans[id].items = items
	t.mu.Unlock()
}

// reset drops the spans recorded so far; no span may be open.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap one another (concurrent
// plan halves under one round), so the covered part is the length of the
// union of the children's intervals, clipped to the parent's.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent != noSpan {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed
		}
		iv = iv[:0]
		for _, k := range kids[int32(i)] {
			c := spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.end - s.start - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by the intervals iv (reordered in
// place).
func unionLen(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layer aggregates the spans of one name.
type layer struct {
	calls      int
	busy, self time.Duration
	items      int64
	durations  []float64 // milliseconds, per call
}

// aggregate folds spans by name.
func aggregate(spans []span) map[string]*layer {
	self := selfTimes(spans)
	out := make(map[string]*layer)
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		l := out[s.name]
		if l == nil {
			l = &layer{}
			out[s.name] = l
		}
		d := time.Duration(s.end - s.start)
		l.calls++
		l.busy += d
		l.self += time.Duration(self[i])
		l.items += s.items
		l.durations = append(l.durations, float64(d)/1e6)
	}
	return out
}

// writeSpans writes spans as CSV (id, parent, name, start_ns, end_ns, items)
// after a header line of # key=value run facts.
func writeSpans(path string, header []string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, h := range header {
		fmt.Fprintf(w, "# %s\n", h)
	}
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,items")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", i, s.parent, s.name, s.start, s.end, s.items)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
