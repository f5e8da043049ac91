package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// refStreamSeries is the identity set of the handle-path property test: two
// metrics over a few nodes, one series without labels.
func refStreamSeries() []telemetry.Point {
	var ids []telemetry.Point
	for _, name := range []string{"node.power.watts", "node.temp.celsius"} {
		for n := 0; n < 6; n++ {
			ids = append(ids, telemetry.Point{Name: name, Labels: telemetry.Labels{"node": fmt.Sprintf("n%02d", n), "rack": fmt.Sprintf("r%d", n/3)}})
		}
	}
	return append(ids, telemetry.Point{Name: "facility.pue"})
}

// errText renders an error for comparison; nil is "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestAppendRefsMatchesAppendBatch feeds one seeded stream of batches
// through AppendBatch and through Ref+AppendRefs. The stream mixes NaN
// values, out-of-order timestamps, equal-timestamp overwrites and repeated
// series within a batch; both paths must return the same error for every
// batch and end in byte-identical snapshots. Both stores start with one
// valid sample per series: Ref creates a series before its first sample,
// while a rejected AppendBatch point creates nothing, so an identity whose
// every point is rejected would otherwise differ by design.
func TestAppendRefsMatchesAppendBatch(t *testing.T) {
	ids := refStreamSeries()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rule := RollupRule{Metric: "node.power.watts", Step: 20 * time.Second, Agg: AggMean}
		byPoint, byRef := New(time.Minute), New(time.Minute)
		for _, db := range []*DB{byPoint, byRef} {
			if err := db.AddRollup(rule); err != nil {
				t.Fatal(err)
			}
		}
		warm := make([]telemetry.Point, len(ids))
		for i, id := range ids {
			warm[i] = telemetry.Point{Name: id.Name, Labels: id.Labels}
		}
		if err := byPoint.AppendBatch(warm); err != nil {
			t.Fatal(err)
		}
		refs := make([]telemetry.SeriesRef, len(ids))
		for i, id := range ids {
			r, err := byRef.Ref(id.Name, id.Labels)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = r
		}
		if err := byRef.AppendRefs(0, refs, make([]float64, len(ids))); err != nil {
			t.Fatal(err)
		}

		now := time.Duration(0)
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				now += time.Duration(1+rng.Intn(15)) * time.Second
			case r < 8: // equal timestamp: overwrite the tails
			default: // behind some tails: out of order
				now -= time.Duration(rng.Intn(20)) * time.Second
			}
			n := 1 + rng.Intn(2*len(ids))
			pts := make([]telemetry.Point, n)
			brefs := make([]telemetry.SeriesRef, n)
			vals := make([]float64, n)
			for j := range pts {
				k := rng.Intn(len(ids))
				v := rng.NormFloat64() * 100
				if rng.Intn(12) == 0 {
					v = math.NaN()
				}
				pts[j] = telemetry.Point{Name: ids[k].Name, Labels: ids[k].Labels, Time: now, Value: v}
				brefs[j], vals[j] = refs[k], v
			}
			e1, e2 := byPoint.AppendBatch(pts), byRef.AppendRefs(now, brefs, vals)
			if errText(e1) != errText(e2) {
				t.Fatalf("seed %d step %d: AppendBatch error %q, AppendRefs error %q", seed, step, errText(e1), errText(e2))
			}
		}
		s1, err := byPoint.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := byRef.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(s1) != string(s2) {
			t.Fatalf("seed %d: snapshots differ:\n points: %s\n refs:   %s", seed, s1, s2)
		}
	}
}

// TestRefIsStable checks that Ref returns one handle per identity, whatever
// the label map instance, and that a point append lands on the same series.
func TestRefIsStable(t *testing.T) {
	db := New(0)
	a, err := db.Ref("m", telemetry.Labels{"node": "n1", "rack": "r0"})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := db.Ref("m", telemetry.Labels{"rack": "r0", "node": "n1"})
	c, _ := db.Ref("m", telemetry.Labels{"node": "n2", "rack": "r0"})
	if a != b || a == c || a == 0 {
		t.Fatalf("refs a=%#x b=%#x c=%#x: want a == b, a != c, none zero", a, b, c)
	}
	if _, err := db.Ref("", nil); err == nil {
		t.Error("Ref with an empty name succeeded")
	}
	if err := db.Append(telemetry.Point{Name: "m", Labels: telemetry.Labels{"node": "n1", "rack": "r0"}, Time: time.Second, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendRefs(2*time.Second, []telemetry.SeriesRef{a}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	ss := db.Query("m", telemetry.Labels{"node": "n1"}, 0, time.Minute)
	if len(ss) != 1 || len(ss[0].Samples) != 2 {
		t.Fatalf("query = %v, want one series with two samples", ss)
	}
	if db.NumSeries() != 2 {
		t.Errorf("NumSeries = %d, want 2", db.NumSeries())
	}
}

// TestAppendRefsRejectsForeignRefs checks that the zero handle, a handle of
// another DB and an out-of-range slot each yield a *RefError for that point
// only, without panicking, while the valid points of the batch land.
func TestAppendRefsRejectsForeignRefs(t *testing.T) {
	db, other := New(0), New(0)
	good, _ := db.Ref("m", telemetry.Labels{"node": "n1"})
	foreign, _ := other.Ref("m", telemetry.Labels{"node": "n1"})
	beyond := good + 1<<20 // same DB and shard, a slot never issued
	for _, bad := range []telemetry.SeriesRef{0, foreign, beyond, ^telemetry.SeriesRef(0)} {
		err := db.AppendRefs(time.Second, []telemetry.SeriesRef{good, bad}, []float64{1, 2})
		var re *RefError
		if !errors.As(err, &re) || re.Ref != bad {
			t.Errorf("ref %#x: err = %v, want *RefError for it", uint64(bad), err)
		}
	}
	if v, ok := db.LatestValue("m", nil); !ok || v != 1 {
		t.Errorf("valid point of the batch: LatestValue = %v, %v; want 1", v, ok)
	}
	if err := db.AppendRefs(time.Second, []telemetry.SeriesRef{good}, nil); err == nil {
		t.Error("AppendRefs with mismatched lengths succeeded")
	}
	if err := db.AppendRefs(time.Second, nil, nil); err != nil {
		t.Errorf("empty AppendRefs: %v", err)
	}
}

// TestJournaledAppendRefsReplay journals a handle-path run — overwrites and
// rejected points included — and replays the WAL through RestoreFrom into
// an equal store.
func TestJournaledAppendRefsReplay(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rule := RollupRule{Metric: "node.temp.celsius", Step: 30 * time.Second, Agg: AggMax}
	db1 := New(0)
	if err := db1.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	db1.Journal(w)
	ids := refStreamSeries()
	refs := make([]telemetry.SeriesRef, len(ids))
	for i, id := range ids {
		if refs[i], err = db1.Ref(id.Name, id.Labels); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]float64, len(ids))
	for step := 0; step < 40; step++ {
		at := time.Duration(step/2) * 10 * time.Second // every time twice: overwrites
		for i := range vals {
			vals[i] = float64(step*len(vals) + i)
		}
		if step%7 == 3 {
			vals[step%len(vals)] = math.NaN() // rejected, never journaled
		}
		_ = db1.AppendRefs(at, refs, vals)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	db2 := New(0)
	if err := db2.AddRollup(rule); err != nil {
		t.Fatal(err)
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

// TestAppendRefsAllocs gates the handle path: a warm AppendRefs, with and
// without a journal attached, allocates nothing.
func TestAppendRefsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under the race detector")
	}
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	for _, journaled := range []bool{false, true} {
		db := New(time.Hour)
		if journaled {
			db.Journal(w)
		}
		pts := ingestBatch(0)
		refs := make([]telemetry.SeriesRef, len(pts))
		vals := make([]float64, len(pts))
		for i, p := range pts {
			refs[i], _ = db.Ref(p.Name, p.Labels)
			vals[i] = p.Value
		}
		at := time.Duration(0)
		appendAll := func() {
			at += time.Second
			if err := db.AppendRefs(at, refs, vals); err != nil {
				t.Fatalf("AppendRefs: %v", err)
			}
		}
		for i := 0; i < 4096; i++ {
			appendAll()
		}
		if allocs := testing.AllocsPerRun(200, appendAll); allocs != 0 {
			t.Errorf("journaled=%v: warm AppendRefs allocates %.1f/op, want 0", journaled, allocs)
		}
	}
}

// TestParallelAppendRefsWithReads runs handle appenders beside LatestInto,
// WindowInto and late Ref calls; under -race it guards the slot table's
// locking.
func TestParallelAppendRefsWithReads(t *testing.T) {
	db := New(time.Minute)
	const writers, nodes, steps = 4, 64, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			refs := make([]telemetry.SeriesRef, nodes)
			vals := make([]float64, nodes)
			for i := range refs {
				r, err := db.Ref("p.load", telemetry.Labels{"node": fmt.Sprintf("w%d.n%02d", w, i)})
				if err != nil {
					t.Error(err)
					return
				}
				refs[i] = r
			}
			for s := 1; s <= steps; s++ {
				for i := range vals {
					vals[i] = float64(s + i)
				}
				if err := db.AppendRefs(time.Duration(s)*time.Second, refs, vals); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var pts []telemetry.Point
			var vals []float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				pts = db.LatestInto(pts[:0], "p.load", nil)
				for i := 1; i < len(pts); i++ {
					if pts[i-1].Labels.Key() >= pts[i].Labels.Key() {
						t.Error("LatestInto out of label-key order under concurrent appends")
						return
					}
				}
				vals = db.WindowInto(vals[:0], "p.load", nil, 0, time.Hour)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := len(db.LatestInto(nil, "p.load", nil)); got != writers*nodes {
		t.Fatalf("LatestInto saw %d series, want %d", got, writers*nodes)
	}
	if got, want := db.Appended(), uint64(writers*nodes*steps); got != want {
		t.Fatalf("Appended = %d, want %d", got, want)
	}
}

// TestReadsOrderManySeries creates 10,240 series in shuffled order and
// checks that LatestInto and WindowInto return them in label-key order, the
// size at which the reads' sort must stay O(n log n).
func TestReadsOrderManySeries(t *testing.T) {
	const series = 10240
	db := New(0)
	order := rand.New(rand.NewSource(3)).Perm(series)
	for _, n := range order {
		labels := telemetry.Labels{"node": fmt.Sprintf("n%05d", n), "rack": fmt.Sprintf("r%03d", n/64)}
		for i := 0; i < 2; i++ {
			if err := db.Append(telemetry.Point{Name: "m", Labels: labels, Time: time.Duration(i) * time.Second, Value: float64(n)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pts := db.LatestInto(nil, "m", nil)
	if len(pts) != series {
		t.Fatalf("LatestInto returned %d points, want %d", len(pts), series)
	}
	for i, p := range pts {
		if p.Value != float64(i) {
			t.Fatalf("LatestInto[%d] is %s, want node n%05d (label-key order)", i, p.Labels, i)
		}
	}
	vals := db.WindowInto(nil, "m", nil, 0, time.Minute)
	if len(vals) != 2*series {
		t.Fatalf("WindowInto returned %d values, want %d", len(vals), 2*series)
	}
	for i, v := range vals {
		if v != float64(i/2) {
			t.Fatalf("WindowInto[%d] = %v, want %d (label-key order)", i, v, i/2)
		}
	}
}
