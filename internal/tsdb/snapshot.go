package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"autoloop/internal/telemetry"
)

// Snapshot serialization. A snapshot captures everything replay cannot
// cheaply rebuild: every series' live raw samples plus the full state of its
// continuous rollups — the flushed rollup samples AND the open bucket's raw
// values. Rollup state must be explicit because rollup retention outlives
// raw retention: by the time a snapshot is taken, the samples that produced
// an old rollup bucket are long expired, so re-observing raw samples could
// never reconstruct it.
//
// Shard placement is NOT serialized: the identity hash is seeded per process,
// so a restored series may land on a different shard than it occupied in the
// previous run. That is invisible to callers — every query path sorts its
// results by series label key. The Appended counter is carried as a single
// total and credited to shard 0 on restore.
//
// The payload is the JSON json.Marshal writes for dbSnap, and RestoreSnapshot
// reads back exactly that subset of JSON:
//
//	snapshot = {"appended": uint, "series": [series, ...]}
//	series   = {"name": string, "labels": {string: string, ...},
//	            "samples": [sample, ...], "rollups": [rollup, ...]}
//	rollup   = {"step": int, "agg": int, "retention": int, "bucket": int,
//	            "values": [float, ...], "samples": [sample, ...]}
//	sample   = {"Time": int, "Value": float}
//
// Members may come in any order and any may be absent; whitespace between
// tokens is JSON's. Numbers follow JSON's number grammar: an int or uint
// rejects a fraction, an exponent and a value outside int64 (uint64), and a
// float a value outside float64, as encoding/json does. A string holding an
// escape or invalid UTF-8 is decoded by encoding/json, so every string means
// what it means to JSON. Rejected, as a *DecodeError with the byte offset:
// malformed JSON, trailing data, null, an unknown or case-variant key, a
// repeated key (label keys too), and, per decoded series, an empty name, a
// series seen before, a rollup step that is not positive, and raw or rollup
// samples not strictly increasing in time.

// seriesSnap is one series' serialized state.
type seriesSnap struct {
	Name    string             `json:"name"`
	Labels  telemetry.Labels   `json:"labels,omitempty"`
	Samples []telemetry.Sample `json:"samples,omitempty"`
	Rollups []rollupSnap       `json:"rollups,omitempty"`

	key string // the series' label key, the sort order within a name
}

// rollupSnap is one seriesRollup's serialized state, keyed by the rule's
// identity (metric is the owning series' name).
type rollupSnap struct {
	Step      time.Duration      `json:"step"`
	Agg       Agg                `json:"agg"`
	Retention time.Duration      `json:"retention,omitempty"`
	Bucket    int64              `json:"bucket"`
	Values    []float64          `json:"values,omitempty"`
	Samples   []telemetry.Sample `json:"samples,omitempty"`
}

// dbSnap is the whole database's serialized state.
type dbSnap struct {
	Appended uint64       `json:"appended"`
	Series   []seriesSnap `json:"series,omitempty"`
}

// Snapshot serializes the database: every series' live samples and complete
// rollup states, plus the appended counter. Series are sorted by (name,
// label key) so the bytes are deterministic for a given logical state. Each
// shard is read-locked briefly in turn; taken under live ingestion the
// snapshot is a consistent-per-series (not globally instantaneous) cut,
// which recovery's skip-behind-tail replay is designed for.
func (db *DB) Snapshot() ([]byte, error) {
	var snap dbSnap
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		snap.Appended += sh.appended
		for name, fams := range sh.byName {
			for _, s := range fams {
				ss := seriesSnap{Name: name, Labels: s.labels.Clone(), key: s.key}
				if live := s.live(); len(live) > 0 {
					ss.Samples = append([]telemetry.Sample(nil), live...)
				}
				for _, sr := range s.rollups {
					rs := rollupSnap{
						Step:      sr.rule.Step,
						Agg:       sr.rule.Agg,
						Retention: sr.rule.Retention,
						Bucket:    sr.bucket,
					}
					if len(sr.values) > 0 {
						rs.Values = append([]float64(nil), sr.values...)
					}
					if live := sr.live(); len(live) > 0 {
						rs.Samples = append([]telemetry.Sample(nil), live...)
					}
					ss.Rollups = append(ss.Rollups, rs)
				}
				snap.Series = append(snap.Series, ss)
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(snap.Series, func(a, b seriesSnap) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	return json.Marshal(&snap)
}

// RestoreSnapshot rebuilds the database from a Snapshot payload. It must be
// called on a freshly created DB — after the application has registered its
// rollup rules and before any appends, replay, or Journal attach. Rollup
// states recorded in the snapshot are restored verbatim; a registered rule
// the snapshot does not know (added since the snapshot was taken) is
// backfilled from the restored raw samples, exactly as AddRollup would.
//
// The payload is read in one pass by a decoder for the grammar above, and
// each series is created as soon as it has been read. A rejected payload
// (a *DecodeError) may therefore leave the DB partly restored; discard it.
func (db *DB) RestoreSnapshot(data []byte) error {
	d := snapDecoder{db: db, rules: db.loadRules(), data: data, strs: make(map[string]string)}
	appended, err := d.decode()
	if err != nil {
		return err
	}
	db.creditAppended(appended)
	return nil
}

// restoreSeries validates one decoded series and creates it with its rollup
// states. Every snapshot series goes through here, whichever decoder read
// it. ss is not retained, but its sample and value slices are.
func (db *DB) restoreSeries(ss *seriesSnap, rules []RollupRule) error {
	if ss.Name == "" {
		return errors.New("series has no name")
	}
	if !timeOrdered(ss.Samples) {
		return fmt.Errorf("series %s%s: samples not in increasing time order", ss.Name, ss.Labels)
	}
	for _, rs := range ss.Rollups {
		if rs.Step <= 0 {
			return fmt.Errorf("series %s%s: rollup step %v is not positive", ss.Name, ss.Labels, rs.Step)
		}
		if !timeOrdered(rs.Samples) {
			return fmt.Errorf("series %s%s: rollup %v %v samples not in increasing time order", ss.Name, ss.Labels, rs.Step, rs.Agg)
		}
	}
	p := telemetry.Point{Name: ss.Name, Labels: ss.Labels}
	h := identityOf(&p)
	sh := &db.shards[shardIndex(h)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.lookup(h, &p) != nil {
		return fmt.Errorf("duplicate series %s%s", ss.Name, ss.Labels)
	}
	// Create without attaching rules: rollup states come from the
	// snapshot, not from fresh (empty) rule instances.
	s := sh.create(&p, h, db.refBase, nil, db.noteName)
	s.samples = ss.Samples
	for _, rs := range ss.Rollups {
		s.rollups = append(s.rollups, &seriesRollup{
			rule:    RollupRule{Metric: ss.Name, Step: rs.Step, Agg: rs.Agg, Retention: rs.Retention},
			bucket:  rs.Bucket,
			values:  rs.Values,
			samples: rs.Samples,
		})
	}
	// Backfill registered rules the snapshot predates.
	for i := range rules {
		if rules[i].Metric != ss.Name || s.hasRollup(rules[i]) {
			continue
		}
		sr := newSeriesRollup(rules[i])
		for _, smp := range s.live() {
			sr.observe(smp.Time, smp.Value, false)
		}
		s.rollups = append(s.rollups, sr)
	}
	return nil
}

// timeOrdered reports whether samples are strictly increasing in time, the
// order every read path's binary search and the append path rely on.
func timeOrdered(samples []telemetry.Sample) bool {
	for i := 1; i < len(samples); i++ {
		if samples[i].Time <= samples[i-1].Time {
			return false
		}
	}
	return true
}

// creditAppended adds a restored snapshot's appended counter to shard 0.
func (db *DB) creditAppended(n uint64) {
	sh0 := &db.shards[0]
	sh0.mu.Lock()
	sh0.appended += n
	sh0.mu.Unlock()
}
