package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// fuzzReplayDB returns a store holding the series the committed FuzzApplyWAL
// corpus addresses, so replayed points hit existing series as well as
// creating new ones: m{node=a,rack=r} (with a rollup), m{node=b} and a
// label-free n, each with samples at 10s and 20s.
func fuzzReplayDB(t *testing.T) *DB {
	db := New(time.Hour)
	if err := db.AddRollup(RollupRule{Metric: "m", Step: 10 * time.Second, Agg: AggMax}); err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{10 * time.Second, 20 * time.Second} {
		for _, p := range []telemetry.Point{
			{Name: "m", Labels: telemetry.Labels{"node": "a", "rack": "r"}, Time: at, Value: 1},
			{Name: "m", Labels: telemetry.Labels{"node": "b"}, Time: at, Value: 2},
			{Name: "n", Time: at, Value: 3},
		} {
			if err := db.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// replayReference applies a record the way replay worked before points were
// resolved from the record bytes: decode every point into a
// telemetry.Point, skip it when it is strictly behind its series' tail,
// else Append it.
func replayReference(db *DB, payload []byte) error {
	for len(payload) > 0 {
		p, rest, err := decodePointEnc(payload)
		if err != nil {
			return err
		}
		h := identityOf(&p)
		sh := &db.shards[shardIndex(h)]
		sh.mu.RLock()
		behind := false
		if s := sh.lookup(h, &p); s != nil {
			n := len(s.samples)
			behind = n > 0 && p.Time < s.samples[n-1].Time
		}
		sh.mu.RUnlock()
		if !behind {
			if err := db.Append(p); err != nil {
				return err
			}
		}
		payload = rest
	}
	return nil
}

// fuzzState renders a store for comparison: its snapshot bytes, or, when a
// replayed infinite value makes the snapshot fail to marshal, the error and
// every raw and rollup series.
func fuzzState(db *DB) string {
	snap, err := db.Snapshot()
	if err == nil {
		return string(snap)
	}
	const from, to = time.Duration(math.MinInt64), time.Duration(math.MaxInt64)
	out := fmt.Sprintf("%v appended=%d", err, db.Appended())
	for _, name := range db.MetricNames() {
		out += fmt.Sprintf(" %s=%v", name, db.Query(name, nil, from, to))
		for _, rule := range db.Rollups() {
			if rule.Metric == name {
				ss, _ := db.QueryRollup(name, nil, rule.Step, rule.Agg, from, to)
				out += fmt.Sprintf(" %s=%v", rule, ss)
			}
		}
	}
	return out
}

// FuzzApplyWAL feeds arbitrary record payloads to ApplyWAL and to the
// decoding reference, each on a fresh copy of the same store: replay never
// panics, both return the same error (or none), and both end in the same
// state. The committed corpus holds records in both label orders, repeated
// label keys, overwrites, points behind the tail, NaN, an empty name, and
// truncated or oversized input.
func FuzzApplyWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		fast, ref := fuzzReplayDB(t), fuzzReplayDB(t)
		errFast, errRef := fast.ApplyWAL(payload), replayReference(ref, payload)
		if errText(errFast) != errText(errRef) {
			t.Fatalf("ApplyWAL error %q, decoding reference %q", errText(errFast), errText(errRef))
		}
		if a, b := fuzzState(fast), fuzzState(ref); a != b {
			t.Fatalf("ApplyWAL state differs from the decoding reference:\n wal: %s\n ref: %s", a, b)
		}
	})
}

// restoreReference restores a snapshot the way RestoreSnapshot did before it
// had a decoder of its own: json.Unmarshal into dbSnap, then every series
// through the same validation and creation path.
func restoreReference(db *DB, data []byte) error {
	var snap dbSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	rules := db.loadRules()
	for i := range snap.Series {
		if err := db.restoreSeries(&snap.Series[i], rules); err != nil {
			return err
		}
	}
	db.creditAppended(snap.Appended)
	return nil
}

// fuzzRestoreDB returns the fresh store a fuzzed snapshot is restored into:
// one rollup rule is registered, so a snapshot series of metric m without
// that rollup's state is backfilled.
func fuzzRestoreDB(t *testing.T) *DB {
	db := New(0)
	if err := db.AddRollup(RollupRule{Metric: "m", Step: 10 * time.Second, Agg: AggMax}); err != nil {
		t.Fatal(err)
	}
	return db
}

// FuzzRestoreSnapshot feeds arbitrary payloads to RestoreSnapshot: it never
// panics, rejects only with a *DecodeError, and whatever it accepts the
// json.Unmarshal reference accepts too, ending in the same state; the
// restored store's own snapshot then restores to itself byte for byte. The
// committed corpus holds canonical snapshots (rollups, escaped and invalid
// UTF-8 labels), whitespace, reordered members, unknown, case-variant and
// repeated keys, null, non-integer and out-of-range numbers, truncation,
// trailing data and out-of-order samples.
func FuzzRestoreSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db := fuzzRestoreDB(t)
		if err := db.RestoreSnapshot(data); err != nil {
			var de *DecodeError
			if !errors.As(err, &de) || !de.Snapshot || !strings.HasPrefix(err.Error(), "tsdb: restore snapshot: ") {
				t.Fatalf("RestoreSnapshot error %q (%T), want a snapshot *DecodeError", err, err)
			}
			return
		}
		ref := fuzzRestoreDB(t)
		if err := restoreReference(ref, data); err != nil {
			t.Fatalf("RestoreSnapshot accepted a payload the json.Unmarshal reference rejects: %v", err)
		}
		state := fuzzState(db)
		if want := fuzzState(ref); state != want {
			t.Fatalf("restored state differs from the reference:\n got: %s\nwant: %s", state, want)
		}
		if db.Appended() != ref.Appended() || db.NumSeries() != ref.NumSeries() {
			t.Fatalf("restored %d appended / %d series, reference %d / %d",
				db.Appended(), db.NumSeries(), ref.Appended(), ref.NumSeries())
		}
		again := fuzzRestoreDB(t)
		if err := again.RestoreSnapshot([]byte(state)); err != nil {
			t.Fatalf("restoring the restored store's snapshot: %v", err)
		}
		if got := fuzzState(again); got != state {
			t.Fatalf("snapshot does not restore to itself:\n got: %s\nwant: %s", got, state)
		}
	})
}
