// Package tsdb implements an in-memory time-series database for operational
// telemetry: append-only labeled series with range and instant queries,
// downsampling, aggregation, retention, and continuous rollups.
//
// It is the storage substrate behind the Monitor phase and the raw-data part
// of the Knowledge component. The query surface is intentionally close to
// what a production MODA stack (DCDB, Prometheus, Examon) exposes, so loop
// components written against it would port to a real deployment by swapping
// this package behind the same calls.
//
// Internally the store is sharded: series are distributed over lock stripes
// by an identity hash, each shard carries an inverted label index
// (key=value -> posting list) so matcher queries intersect postings instead
// of scanning every series of a metric, and range bounds inside a series are
// binary-searched. Registered RollupRules are maintained incrementally at
// append time and queried with QueryRollup, staying available beyond the raw
// samples' retention.
//
// Ingest comes in two forms that share one per-series append core (the
// validation, rollup, retention and WAL-record code). AppendBatch takes
// Points and resolves each to its series by identity hash on every call; it
// serves callers whose series are not known in advance (the gateway, the
// bus). WAL replay (ApplyWAL) computes the same identity hash straight from
// the record bytes and decodes a point only to create its series. Ref
// resolves a (name, labels) identity once to a stable telemetry.SeriesRef —
// the series' shard and its slot in the shard's append-only series table —
// and AppendRefs then appends by handle with no hashing or label
// comparison; collectors with a fixed series set (the hw node sweep) use it
// through telemetry.RefCollector. The store clones labels when it creates a
// series, but collectors may share one Labels map across sweeps, so Labels
// handed to the store are treated as immutable.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/telemetry"
)

// DB is an in-memory sharded time-series database. It is safe for concurrent
// use; under the simulator all access is single-threaded, but cmd/modad
// serves network queries from multiple goroutines and fleet benchmarks
// append from parallel workers.
type DB struct {
	shards    [numShards]shard
	retention time.Duration // 0 means keep everything

	// rules is the registered rollup-rule set, swapped atomically so the
	// append hot path reads it with a single pointer load. rollupMu
	// serializes writers (AddRollup).
	rules    atomic.Pointer[[]RollupRule]
	rollupMu sync.Mutex

	// nameMu guards names, the set of metric names ever appended; series
	// creation is rare, so a single small mutex does not stripe.
	nameMu sync.Mutex
	names  map[string]struct{}

	// journal, when non-nil, receives every accepted append as a WAL record
	// emitted under the owning shard's lock (see journal.go). Set via
	// Journal before ingestion starts; read on the hot path unsynchronized.
	journal Journaler

	// refBase tags every SeriesRef this DB issues, so AppendRefs can reject
	// handles from another DB.
	refBase refBase
}

// New returns an empty database that retains samples for the given duration;
// retention <= 0 keeps all samples forever.
func New(retention time.Duration) *DB {
	db := &DB{retention: retention, names: make(map[string]struct{}), refBase: newRefBase()}
	for i := range db.shards {
		db.shards[i].byName = make(map[string]map[string]*memSeries)
		db.shards[i].postings = make(map[labelPair][]*memSeries)
		db.shards[i].byHash = make(map[uint64][]*memSeries)
	}
	return db
}

func (db *DB) loadRules() []RollupRule {
	if p := db.rules.Load(); p != nil {
		return *p
	}
	return nil
}

// noteName records a metric name on first series creation.
func (db *DB) noteName(name string) {
	db.nameMu.Lock()
	db.names[name] = struct{}{}
	db.nameMu.Unlock()
}

// Append inserts a point. Out-of-order points (earlier than the series tail)
// are rejected with an error; equal timestamps overwrite the tail value so
// that idempotent re-collection is harmless.
func (db *DB) Append(p telemetry.Point) error {
	h := identityOf(&p)
	sh := &db.shards[shardIndex(h)]
	eb := db.encoder()
	sh.mu.Lock()
	err := db.appendLocked(sh, &p, h, eb)
	if jerr := db.emitLocked(eb); err == nil {
		err = jerr
	}
	sh.mu.Unlock()
	db.releaseEncoder(eb)
	return err
}

// appendLocked resolves one point to its series, creating it, and appends
// it under the owning shard's write lock. A rejected point never creates a
// series.
func (db *DB) appendLocked(sh *shard, p *telemetry.Point, h uint64, eb *encBuf) error {
	s, err := db.seriesLocked(sh, p, h)
	if err != nil {
		return err
	}
	return db.appendSeriesLocked(sh, s, p.Time, p.Value, eb)
}

// seriesLocked resolves p to its series under the owning shard's write
// lock, creating the series unless p would be rejected (an empty name, or a
// NaN that would be the series' first sample).
func (db *DB) seriesLocked(sh *shard, p *telemetry.Point, h uint64) (*memSeries, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("tsdb: append with empty metric name")
	}
	s := sh.lookup(h, p)
	if s == nil {
		if math.IsNaN(p.Value) {
			return nil, nanError(p.Name, p.Labels)
		}
		// Rules are loaded under the shard lock (an atomic pointer read):
		// see shard.create for the AddRollup race reasoning.
		s = sh.create(p, h, db.refBase, db.loadRules(), db.noteName)
	}
	return s, nil
}

// appendSeriesLocked is the one append core every ingest path ends in: it
// validates and stores one sample of s under the owning shard's write lock,
// maintains rollups and retention, and, when eb is non-nil, adds the
// accepted sample's journal encoding to eb.
func (db *DB) appendSeriesLocked(sh *shard, s *memSeries, t time.Duration, v float64, eb *encBuf) error {
	if math.IsNaN(v) {
		return nanError(s.name, s.labels)
	}
	n := len(s.samples)
	switch {
	case n > 0 && t < s.samples[n-1].Time:
		return fmt.Errorf("tsdb: out-of-order append for %s%s: %v < %v", s.name, s.labels, t, s.samples[n-1].Time)
	case n > 0 && t == s.samples[n-1].Time:
		s.samples[n-1].Value = v
		for _, sr := range s.rollups {
			sr.observe(t, v, true)
		}
	default:
		s.samples = append(s.samples, telemetry.Sample{Time: t, Value: v})
		for _, sr := range s.rollups {
			sr.observe(t, v, false)
		}
		sh.appended++ // under sh.mu, so no shared cache line bounces per append
		if db.retention > 0 {
			s.truncateBefore(t - db.retention)
		}
	}
	if eb != nil {
		eb.b = appendSampleEnc(eb.b, s, t, v)
	}
	return nil
}

func nanError(name string, labels telemetry.Labels) error {
	return fmt.Errorf("tsdb: append NaN for %s%s", name, labels)
}

// batchBuffers is the pooled scratch a batch is grouped by shard with: each
// entry's shard, and the counting-sorted entry order.
type batchBuffers struct {
	hs    []uint64
	sis   []uint8
	order []int32
}

var batchScratch = sync.Pool{New: func() interface{} { return new(batchBuffers) }}

// getBatchBuffers returns pooled scratch sized for n entries.
func getBatchBuffers(n int) *batchBuffers {
	sc := batchScratch.Get().(*batchBuffers)
	if cap(sc.order) < n {
		sc.hs = make([]uint64, n)
		sc.sis = make([]uint8, n)
		sc.order = make([]int32, n)
	}
	sc.hs, sc.sis, sc.order = sc.hs[:n], sc.sis[:n], sc.order[:n]
	return sc
}

// applyGrouped is the shared batch loop of AppendBatch and AppendRefs. A
// counting sort by shard (sis[i] is entry i's shard) visits each entry once;
// then each touched shard is locked exactly once and apply runs for its
// entries in original batch order, followed by one WAL record carrying the
// shard's accepted samples, emitted before the shard unlocks so per-series
// log order equals apply order. The earliest-indexed error is returned, but
// every entry is attempted.
func (db *DB) applyGrouped(sis []uint8, order []int32, apply func(sh *shard, i int32, eb *encBuf) error) error {
	var counts [numShards]int32
	for _, si := range sis {
		counts[si]++
	}
	// counts -> start offsets; filling order in entry order keeps each
	// shard's slice sorted by original batch index.
	var offsets [numShards]int32
	var sum int32
	for si := range counts {
		offsets[si] = sum
		sum += counts[si]
	}
	fill := offsets
	for i, si := range sis {
		order[fill[si]] = int32(i)
		fill[si]++
	}
	var first error
	firstAt := int32(len(sis))
	var jerr error
	eb := db.encoder()
	for si := 0; si < numShards; si++ {
		if counts[si] == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.mu.Lock()
		for _, i := range order[offsets[si] : offsets[si]+counts[si]] {
			if err := apply(sh, i, eb); err != nil && i < firstAt {
				first, firstAt = err, i
			}
		}
		if err := db.emitLocked(eb); err != nil && jerr == nil {
			jerr = err
		}
		sh.mu.Unlock()
	}
	db.releaseEncoder(eb)
	if first == nil {
		first = jerr
	}
	return first
}

// AppendBatch inserts every point in one grouped pass (see applyGrouped):
// each point is resolved to its series by identity hash, then appended
// through the same core as AppendRefs. The earliest-indexed error is
// returned (but all points are attempted). It implements telemetry.Sink.
// Callers that know their series in advance should resolve them once with
// Ref and append with AppendRefs instead.
func (db *DB) AppendBatch(pts []telemetry.Point) error {
	if len(pts) == 0 {
		return nil
	}
	sc := getBatchBuffers(len(pts))
	for i := range pts {
		sc.hs[i] = identityOf(&pts[i])
		sc.sis[i] = uint8(shardIndex(sc.hs[i]))
	}
	hs := sc.hs
	err := db.applyGrouped(sc.sis, sc.order, func(sh *shard, i int32, eb *encBuf) error {
		return db.appendLocked(sh, &pts[i], hs[i], eb)
	})
	batchScratch.Put(sc)
	return err
}

// Ref gets or creates the series (name, labels) and returns its handle, a
// SeriesRef naming the series' shard and its slot in that shard's
// append-only series table. Series are never deleted, so the handle stays
// valid for the DB's lifetime. Unlike a rejected Append, Ref creates the
// series even before any sample arrives; an empty series counts in
// NumSeries and Snapshot but matches no query. It implements
// telemetry.RefSink.
func (db *DB) Ref(name string, labels telemetry.Labels) (telemetry.SeriesRef, error) {
	if name == "" {
		return 0, fmt.Errorf("tsdb: ref with empty metric name")
	}
	p := telemetry.Point{Name: name, Labels: labels}
	h := identityOf(&p)
	sh := &db.shards[shardIndex(h)]
	sh.mu.Lock()
	s := sh.lookup(h, &p)
	if s == nil {
		s = sh.create(&p, h, db.refBase, db.loadRules(), db.noteName)
	}
	sh.mu.Unlock()
	return s.ref, nil
}

// RefError reports a SeriesRef this DB did not issue: the zero ref, or one
// from another DB.
type RefError struct {
	Ref telemetry.SeriesRef
}

func (e *RefError) Error() string {
	return fmt.Sprintf("tsdb: unknown series ref %#x", uint64(e.Ref))
}

// AppendRefs appends vals[i] to the series refs[i] names, all at time t, in
// one grouped pass: points are grouped by the shard the handle carries, with
// no hashing or label comparison, and each goes through the same append core
// (validation, rollups, retention, journal record) as AppendBatch, with the
// same errors. A handle this DB did not issue yields a *RefError for that
// point. The earliest-indexed error is returned (but all points are
// attempted). It implements telemetry.RefSink.
func (db *DB) AppendRefs(t time.Duration, refs []telemetry.SeriesRef, vals []float64) error {
	if len(refs) != len(vals) {
		return fmt.Errorf("tsdb: AppendRefs with %d refs but %d values", len(refs), len(vals))
	}
	if len(refs) == 0 {
		return nil
	}
	sc := getBatchBuffers(len(refs))
	for i, r := range refs {
		sc.sis[i] = refShard(r)
	}
	err := db.applyGrouped(sc.sis, sc.order, func(sh *shard, i int32, eb *encBuf) error {
		s := sh.resolve(refs[i])
		if s == nil {
			return &RefError{Ref: refs[i]}
		}
		return db.appendSeriesLocked(sh, s, t, vals[i], eb)
	})
	batchScratch.Put(sc)
	return err
}

// Appended reports the total number of samples stored since creation
// (overwrites of an existing tail timestamp do not count).
func (db *DB) Appended() uint64 {
	var n uint64
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += sh.appended
		sh.mu.RUnlock()
	}
	return n
}

// NumSeries reports the current series cardinality.
func (db *DB) NumSeries() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, fams := range sh.byName {
			n += len(fams)
		}
		sh.mu.RUnlock()
	}
	return n
}

// MetricNames returns all metric names in sorted order.
func (db *DB) MetricNames() []string {
	db.nameMu.Lock()
	names := make([]string, 0, len(db.names))
	for n := range db.names {
		names = append(names, n)
	}
	db.nameMu.Unlock()
	sort.Strings(names)
	return names
}

// forEachMatch invokes visit under each shard's read lock for every series
// matching (name, matcher), resolving candidates through the inverted label
// index. Visit order is unspecified (shard then map order); callers that
// return data must sort by series label key for determinism.
func (db *DB) forEachMatch(name string, matcher telemetry.Labels, visit func(*memSeries)) {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		fams, list, ok := sh.candidates(name, matcher)
		if ok {
			if fams != nil {
				for _, s := range fams {
					if s.labels.Matches(matcher) {
						visit(s)
					}
				}
			} else {
				for _, s := range list {
					if s.name == name && s.labels.Matches(matcher) {
						visit(s)
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// collectSeries visits every series matching (name, matcher) under its
// shard's read lock. fn returns the samples to keep (copied out under the
// lock) or keep=false to drop the series. Results are sorted by label key,
// so every query path is deterministic regardless of shard and map
// iteration order.
func (db *DB) collectSeries(name string, matcher telemetry.Labels, fn func(*memSeries) (samples []telemetry.Sample, keep bool)) []telemetry.Series {
	type item struct {
		key string
		s   telemetry.Series
	}
	var items []item
	db.forEachMatch(name, matcher, func(s *memSeries) {
		if samples, keep := fn(s); keep {
			items = append(items, item{s.key, telemetry.Series{Name: name, Labels: s.labels.Clone(), Samples: samples}})
		}
	})
	if len(items) == 0 {
		return nil
	}
	sort.Slice(items, func(a, b int) bool { return items[a].key < items[b].key })
	out := make([]telemetry.Series, len(items))
	for i := range items {
		out[i] = items[i].s
	}
	return out
}

// Query returns, for the metric name, every series whose labels match the
// matcher, restricted to samples in [from, to]. Label matchers resolve
// through the inverted index (postings intersection) instead of scanning
// every series of the metric, and the time range is binary-searched inside
// each series. Series are returned sorted by label key so that results are
// deterministic. The returned series share no storage with the database.
func (db *DB) Query(name string, matcher telemetry.Labels, from, to time.Duration) []telemetry.Series {
	return db.collectSeries(name, matcher, func(s *memSeries) ([]telemetry.Sample, bool) {
		live := s.live()
		lo, hi := rangeBounds(live, from, to)
		if lo >= hi {
			return nil, false
		}
		cp := make([]telemetry.Sample, hi-lo)
		copy(cp, live[lo:hi])
		return cp, true
	})
}

// QueryOne is Query for callers expecting exactly one matching series; it
// reports false when zero or multiple series match.
func (db *DB) QueryOne(name string, matcher telemetry.Labels, from, to time.Duration) (telemetry.Series, bool) {
	ss := db.Query(name, matcher, from, to)
	if len(ss) != 1 {
		return telemetry.Series{}, false
	}
	return ss[0], true
}

// Latest returns the most recent sample of every matching series, reading
// each series' tail directly — no sample window is copied or scanned.
func (db *DB) Latest(name string, matcher telemetry.Labels) []telemetry.Point {
	type item struct {
		key string
		p   telemetry.Point
	}
	var items []item
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		if len(live) == 0 {
			return
		}
		last := live[len(live)-1]
		items = append(items, item{s.key, telemetry.Point{Name: name, Labels: s.labels.Clone(), Time: last.Time, Value: last.Value}})
	})
	if len(items) == 0 {
		return nil
	}
	sort.Slice(items, func(a, b int) bool { return items[a].key < items[b].key })
	out := make([]telemetry.Point, len(items))
	for i := range items {
		out[i] = items[i].p
	}
	return out
}

// LatestValue returns the newest value of the last matching series in label
// key order (the single series' value when exactly one matches), or
// ok=false when none matches. Unlike Latest it allocates nothing: the
// matching series' tails are read in place.
func (db *DB) LatestValue(name string, matcher telemetry.Labels) (float64, bool) {
	var bestKey string
	var val float64
	found := false
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		if len(live) == 0 {
			return
		}
		if !found || s.key > bestKey {
			bestKey, val, found = s.key, live[len(live)-1].Value, true
		}
	})
	return val, found
}
