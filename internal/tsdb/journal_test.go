package tsdb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// dumpDB serializes every raw series and every registered rollup of the
// database to canonical JSON, the byte-identical comparison recovery tests
// rely on.
func dumpDB(t *testing.T, db *DB) []byte {
	t.Helper()
	type dump struct {
		Appended uint64
		Series   map[string][]telemetry.Series
		Rollups  map[string][]telemetry.Series
	}
	d := dump{Appended: db.Appended(), Series: map[string][]telemetry.Series{}, Rollups: map[string][]telemetry.Series{}}
	for _, name := range db.MetricNames() {
		d.Series[name] = db.Query(name, nil, 0, 1<<62)
		for _, rule := range db.Rollups() {
			if rule.Metric != name {
				continue
			}
			if ss, ok := db.QueryRollup(name, nil, rule.Step, rule.Agg, 0, 1<<62); ok {
				d.Rollups[rule.String()] = ss
			}
		}
	}
	b, err := json.Marshal(&d)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	return b
}

func jpt(name, node string, at time.Duration, v float64) telemetry.Point {
	return telemetry.Point{Name: name, Labels: telemetry.Labels{"node": node}, Time: at, Value: v}
}

// TestJournalReplayRoundTrip journals a mixed workload — multiple series,
// equal-timestamp overwrites, rejected appends — then replays the WAL into a
// fresh database and requires a byte-identical dump.
func TestJournalReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rule := RollupRule{Metric: "node.power.watts", Step: 10 * time.Second, Agg: AggMean, Retention: time.Hour}

	db1 := New(30 * time.Second)
	if err := db1.AddRollup(rule); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	db1.Journal(w)
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * time.Second
		if err := db1.Append(jpt("node.power.watts", "n01", at, 100+float64(i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := db1.Append(jpt("node.temp.celsius", "n01", at, 40+float64(i%7))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// An equal-timestamp overwrite mutates the tail and must be journaled.
	if err := db1.Append(jpt("node.power.watts", "n01", 39*time.Second, 555)); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	// Rejected appends must NOT reach the journal.
	if err := db1.Append(jpt("node.power.watts", "n01", 5*time.Second, 1)); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if err := db1.Append(jpt("node.power.watts", "n01", 50*time.Second, math.NaN())); err == nil {
		t.Fatal("NaN append accepted")
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	db2 := New(30 * time.Second)
	if err := db2.AddRollup(rule); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	r, err := w.Replay(1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := db2.RestoreFrom(r); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	r.Close()
	w.Close()

	if a, b := dumpDB(t, db1), dumpDB(t, db2); string(a) != string(b) {
		t.Fatalf("replayed DB diverges:\n live: %s\n walr: %s", a, b)
	}
}

// TestJournalBatchPath journals through AppendBatch (one WAL record per
// touched shard) with a failing point mixed in, and checks replay parity.
func TestJournalBatchPath(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db1 := New(0)
	db1.Journal(w)
	var batch []telemetry.Point
	for n := 0; n < 32; n++ {
		batch = append(batch, jpt("job.nodes", string(rune('a'+n)), time.Minute, float64(n)))
	}
	batch = append(batch, telemetry.Point{Name: "", Time: time.Minute, Value: 1}) // rejected
	if err := db1.AppendBatch(batch); err == nil {
		t.Fatal("batch with invalid point reported no error")
	}
	if err := db1.AppendBatch(batch[:8]); err != nil { // equal-time overwrites, all journaled
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	db2 := New(0)
	r, err := w.Replay(1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := db2.RestoreFrom(r); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	r.Close()
	w.Close()
	if a, b := dumpDB(t, db1), dumpDB(t, db2); string(a) != string(b) {
		t.Fatalf("batch replay diverges:\n live: %s\n walr: %s", a, b)
	}
}

// TestJournalOffIsIdentical checks journaling does not perturb semantics:
// the same workload with and without a journal produces identical dumps.
func TestJournalOffIsIdentical(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	run := func(j Journaler) *DB {
		db := New(time.Minute)
		db.AddRollup(RollupRule{Metric: "m", Step: 10 * time.Second, Agg: AggMax})
		if j != nil {
			db.Journal(j)
		}
		for i := 0; i < 200; i++ {
			db.Append(jpt("m", "x", time.Duration(i)*time.Second, float64(i)))
		}
		return db
	}
	if a, b := dumpDB(t, run(w)), dumpDB(t, run(nil)); string(a) != string(b) {
		t.Fatalf("journaling perturbed the store:\n on:  %s\n off: %s", a, b)
	}
}

// TestSnapshotRestoreRoundTrip exercises the explicit rollup-state carry:
// raw retention (30s) is far shorter than rollup retention, so the restored
// rollup history cannot be derived from the restored raw samples.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rule := RollupRule{Metric: "node.power.watts", Step: 10 * time.Second, Agg: AggMean, Retention: time.Hour}
	db1 := New(30 * time.Second)
	if err := db1.AddRollup(rule); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	for i := 0; i < 300; i++ {
		at := time.Duration(i) * time.Second
		if err := db1.Append(jpt("node.power.watts", "n01", at, float64(i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i%2 == 0 {
			db1.Append(jpt("node.power.watts", "n02", at, float64(-i)))
		}
	}
	snap, err := db1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	db2 := New(30 * time.Second)
	if err := db2.AddRollup(rule); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	if err := db2.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if a, b := dumpDB(t, db1), dumpDB(t, db2); string(a) != string(b) {
		t.Fatalf("snapshot restore diverges:\n live: %s\n snap: %s", a, b)
	}
	// The open bucket must have been restored too: the next append on both
	// databases lands in the same partial bucket and they stay identical.
	next := jpt("node.power.watts", "n01", 300*time.Second, 1234)
	if err := db1.Append(next); err != nil {
		t.Fatalf("Append live: %v", err)
	}
	if err := db2.Append(next); err != nil {
		t.Fatalf("Append restored: %v", err)
	}
	if a, b := dumpDB(t, db1), dumpDB(t, db2); string(a) != string(b) {
		t.Fatalf("post-restore append diverges:\n live: %s\n snap: %s", a, b)
	}
	// Deterministic snapshot bytes for a given logical state.
	again, err := db2.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot again: %v", err)
	}
	snap1b, err := db1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot live: %v", err)
	}
	if string(again) != string(snap1b) {
		t.Fatal("snapshot bytes differ for identical logical state")
	}
}

// TestSnapshotThenTailReplay is the full recovery sequence: restore a
// snapshot covering seq S, then replay the WAL tail from S+1 — including the
// overlap case where records <= S are re-applied and must be skipped. The
// replayed series exist from RestoreSnapshot, so their points resolve from
// the record bytes: a two-label series checks that the snapshot's labels
// match the journaled ones, and an equal-timestamp overwrite of the
// snapshot's tail must replace the restored value.
func TestSnapshotThenTailReplay(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rule := RollupRule{Metric: "m", Step: 5 * time.Second, Agg: AggSum}
	db1 := New(0)
	db1.AddRollup(rule)
	db1.Journal(w)
	wide := telemetry.Labels{"node": "n02", "rack": "r1"}
	appendAt := func(i int, v float64) {
		at := time.Duration(i) * time.Second
		if err := db1.Append(jpt("m", "n01", at, v)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := db1.Append(telemetry.Point{Name: "m", Labels: wide, Time: at, Value: -v}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		appendAt(i, float64(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	covered := w.LastSeq()
	snap, err := db1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAt(49, 999) // overwrites the tail the snapshot holds
	for i := 50; i < 80; i++ {
		appendAt(i, float64(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	restore := func(from uint64) *DB {
		db := New(0)
		db.AddRollup(rule)
		if err := db.RestoreSnapshot(snap); err != nil {
			t.Fatalf("RestoreSnapshot: %v", err)
		}
		r, err := w.Replay(from)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		defer r.Close()
		if err := db.RestoreFrom(r); err != nil {
			t.Fatalf("RestoreFrom: %v", err)
		}
		return db
	}
	want := dumpDB(t, db1)
	if got := dumpDB(t, restore(covered+1)); string(got) != string(want) {
		t.Fatalf("tail replay diverges:\n live: %s\n rec:  %s", want, got)
	}
	// Replaying the WHOLE log over the snapshot must also converge: records
	// the snapshot covers are skipped, except the counter-free tail
	// overwrite, so only sample data is compared via queries.
	full := restore(1)
	if got, wantQ := full.Query("m", nil, 0, 1<<62), db1.Query("m", nil, 0, 1<<62); !reflect.DeepEqual(got, wantQ) {
		t.Fatalf("overlap replay diverges: %v vs %v", got, wantQ)
	}
	if v, _ := full.LatestValue("m", wide); v != -79 {
		t.Fatalf("overlap replay tail %v, want -79", v)
	}
	if ss := full.Query("m", wide, 49*time.Second, 49*time.Second); len(ss) != 1 || ss[0].Samples[0].Value != -999 {
		t.Fatalf("equal-timestamp overwrite of the restored tail lost: %v", ss)
	}
	w.Close()
}

// appendOrdered appends one point in the journal encoding with its labels
// in the given order: the writer ranges over the label map, so a log holds
// one series' labels in any order.
func appendOrdered(buf []byte, name string, labels [][2]string, at time.Duration, v float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, kv := range labels {
		for _, s := range kv {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	buf = binary.AppendVarint(buf, int64(at))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// TestApplyWALLabelOrder replays one series journaled with its labels in
// both orders, beside a second series and a label-free one, and requires
// the same series set and snapshot bytes as the same points appended with
// AppendBatch.
func TestApplyWALLabelOrder(t *testing.T) {
	orders := [][][2]string{
		{{"node", "n01"}, {"rack", "r1"}},
		{{"rack", "r1"}, {"node", "n01"}},
	}
	rule := RollupRule{Metric: "m", Step: 10 * time.Second, Agg: AggMean}
	replayed, built := New(time.Minute), New(time.Minute)
	for _, db := range []*DB{replayed, built} {
		if err := db.AddRollup(rule); err != nil {
			t.Fatalf("AddRollup: %v", err)
		}
	}
	var rec []byte
	var pts []telemetry.Point
	for i := 0; i < 40; i++ {
		at, v := time.Duration(i)*time.Second, float64(i%9)
		rec = appendOrdered(rec, "m", orders[i%2], at, v)
		rec = appendOrdered(rec, "m", [][2]string{{"node", "n02"}}, at, -v)
		rec = appendOrdered(rec, "facility.pue", nil, at, 1+v/100)
		pts = append(pts,
			telemetry.Point{Name: "m", Labels: telemetry.Labels{"node": "n01", "rack": "r1"}, Time: at, Value: v},
			telemetry.Point{Name: "m", Labels: telemetry.Labels{"node": "n02"}, Time: at, Value: -v},
			telemetry.Point{Name: "facility.pue", Time: at, Value: 1 + v/100})
		if i%4 == 3 { // an equal-timestamp overwrite, in the other order
			rec = appendOrdered(rec, "m", orders[(i+1)%2], at, 100+v)
			pts = append(pts, telemetry.Point{Name: "m", Labels: telemetry.Labels{"node": "n01", "rack": "r1"}, Time: at, Value: 100 + v})
		}
	}
	if err := replayed.ApplyWAL(rec); err != nil {
		t.Fatalf("ApplyWAL: %v", err)
	}
	if err := built.AppendBatch(pts); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if n := replayed.NumSeries(); n != 3 {
		t.Fatalf("replay made %d series, want 3", n)
	}
	a, err := replayed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := built.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("replayed snapshot differs:\n wal:   %s\n batch: %s", a, b)
	}
}

// TestApplyWALAllocs gates the replay hot path: once every series of a
// record exists — appended, or rebuilt by RestoreSnapshot — applying it
// allocates nothing.
func TestApplyWALAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under the race detector")
	}
	rule := RollupRule{Metric: "node.temp.celsius", Step: time.Minute, Agg: AggP95}
	var rec []byte
	appended := New(time.Hour)
	if err := appended.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 16; n++ {
		node, rack := string(rune('a'+n)), string(rune('0'+n/4))
		for _, name := range []string{"node.temp.celsius", "node.power.watts"} {
			if err := appended.Append(telemetry.Point{Name: name, Labels: telemetry.Labels{"node": node, "rack": rack}, Time: time.Second, Value: 1}); err != nil {
				t.Fatal(err)
			}
			rec = appendOrdered(rec, name, [][2]string{{"rack", rack}, {"node", node}}, time.Second, float64(n))
		}
	}
	snap, err := appended.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(time.Hour)
	if err := restored.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"appended": appended, "restored": restored} {
		apply := func() {
			if err := db.ApplyWAL(rec); err != nil {
				t.Fatalf("ApplyWAL: %v", err)
			}
		}
		apply()
		if allocs := testing.AllocsPerRun(200, apply); allocs != 0 {
			t.Errorf("%s: ApplyWAL of 32 existing-series points allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestApplyWALLabelCountBounded replays tiny records claiming huge label
// counts: each must fail as a *DecodeError without allocating in proportion
// to the claimed count.
func TestApplyWALLabelCountBounded(t *testing.T) {
	for _, nl := range []uint64{1 << 20, 1 << 24, 1<<63 + 5} {
		rec := appendOrdered(nil, "m", nil, 0, 0)[:2] // name "m"
		rec = binary.AppendUvarint(rec, nl)
		db := New(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := db.ApplyWAL(rec)
		runtime.ReadMemStats(&after)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("label count %d: error %v, want a *DecodeError", nl, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("label count %d: a %d-byte record allocated %d bytes", nl, len(rec), grew)
		}
	}
}

// TestJournaledAppendAllocs gates the journaled append hot path: attaching a
// WAL must keep steady-state appends allocation-free.
func TestJournaledAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under the race detector")
	}
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	db := New(time.Hour)
	db.Journal(w)
	labels := telemetry.Labels{"node": "n01", "rack": "r1"}
	at := time.Duration(0)
	appendOne := func() {
		at += time.Second
		if err := db.Append(telemetry.Point{Name: "node.power.watts", Labels: labels, Time: at, Value: 42}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for i := 0; i < 4096; i++ {
		appendOne()
	}
	if allocs := testing.AllocsPerRun(1000, appendOne); allocs != 0 {
		t.Fatalf("journaled append allocates %.1f/op, want 0", allocs)
	}
}
