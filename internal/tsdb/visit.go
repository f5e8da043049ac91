package tsdb

import (
	"slices"
	"strings"
	"sync"
	"time"

	"autoloop/internal/telemetry"
)

// This file is the zero-copy half of the query surface: QueryVisit streams
// samples to a callback while the owning shard's read lock is held, and
// WindowInto/LatestInto fill caller-owned buffers with no per-call
// allocations. The materializing forms (Query, Latest) stay available for
// one-shot reporting; tick-time readers use these.

// valueChunk records where one series' values landed in the output buffer,
// so WindowInto can restore label-key order after visiting in shard order.
type valueChunk struct {
	key    string
	off, n int
}

// latestItem is one series' tail sample plus its ordering key.
type latestItem struct {
	key string
	p   telemetry.Point
}

// visitScratch is the pooled per-call ordering state of WindowInto and
// LatestInto. Both order by the series' precomputed label key with an
// O(n log n) sort that allocates nothing: a metric can match every node of
// a 10k-node fleet.
type visitScratch struct {
	chunks []valueChunk
	vals   []float64
	items  []latestItem
}

var visitPool = sync.Pool{New: func() interface{} { return new(visitScratch) }}

// QueryVisit implements telemetry.Querier: it calls visit for every series
// matching (name, matcher) that has at least one sample in [from, to],
// passing the live sample window without copying it. The callback runs under
// the owning shard's read lock: the samples and labels alias store memory,
// are valid only during the call, and must not be retained or mutated. Visit
// order is unspecified.
func (db *DB) QueryVisit(name string, matcher telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		lo, hi := rangeBounds(live, from, to)
		if lo >= hi {
			return
		}
		visit(s.labels, live[lo:hi])
	})
}

// WindowInto implements telemetry.Querier: it appends the values of every
// matching series in [from, to] to buf, concatenated in label-key order (the
// same values, in the same order, that concatenating Query results would
// yield), and returns the extended buffer. Values are copied out under each
// shard's read lock; once buf has capacity the call performs no allocations.
func (db *DB) WindowInto(buf []float64, name string, matcher telemetry.Labels, from, to time.Duration) []float64 {
	sc := visitPool.Get().(*visitScratch)
	sc.chunks = sc.chunks[:0]
	start := len(buf)
	sorted := true
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		lo, hi := rangeBounds(live, from, to)
		if lo >= hi {
			return
		}
		off := len(buf)
		for _, smp := range live[lo:hi] {
			buf = append(buf, smp.Value)
		}
		if len(sc.chunks) > 0 && s.key < sc.chunks[len(sc.chunks)-1].key {
			sorted = false
		}
		sc.chunks = append(sc.chunks, valueChunk{key: s.key, off: off, n: hi - lo})
	})
	if !sorted {
		// Restore label-key order: stage the appended region, reorder the
		// chunk index, and copy the chunks back in key order.
		sc.vals = append(sc.vals[:0], buf[start:]...)
		slices.SortFunc(sc.chunks, func(a, b valueChunk) int { return strings.Compare(a.key, b.key) })
		out := buf[:start]
		for _, c := range sc.chunks {
			out = append(out, sc.vals[c.off-start:c.off-start+c.n]...)
		}
		buf = out
	}
	for i := range sc.chunks {
		sc.chunks[i] = valueChunk{}
	}
	visitPool.Put(sc)
	return buf
}

// LatestInto implements telemetry.Querier: it appends the newest point of
// every matching series to buf in label-key order and returns the extended
// buffer. The points' Labels alias the store's canonical (immutable) label
// maps — read-only for callers — which is what makes the call allocation-free
// with a warm buffer, unlike Latest's per-point clones.
func (db *DB) LatestInto(buf []telemetry.Point, name string, matcher telemetry.Labels) []telemetry.Point {
	sc := visitPool.Get().(*visitScratch)
	sc.items = sc.items[:0]
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		if len(live) == 0 {
			return
		}
		last := live[len(live)-1]
		sc.items = append(sc.items, latestItem{
			key: s.key,
			p:   telemetry.Point{Name: name, Labels: s.labels, Time: last.Time, Value: last.Value},
		})
	})
	its := sc.items
	slices.SortFunc(its, func(a, b latestItem) int { return strings.Compare(a.key, b.key) })
	for i := range its {
		buf = append(buf, its[i].p)
	}
	// Drop label/key references before pooling so the scratch does not pin
	// series metadata of a dead DB.
	for i := range its {
		its[i] = latestItem{}
	}
	visitPool.Put(sc)
	return buf
}
