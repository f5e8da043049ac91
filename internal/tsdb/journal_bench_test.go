package tsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// BenchmarkJournalOverhead compares the batched ingest path with and
// without a WAL attached, at the default group-commit policy. The wal=off
// row is the in-memory baseline; the wal=on delta is what durability costs
// the caller: point encoding plus a buffered frame append — the write and
// fsync happen on the group-commit goroutine, off the append path. Not part
// of the CI bench gate: at benchmark rates the log sustains >100 MB/s, so
// on a shared box the wal=on row measures disk throughput as much as CPU;
// run locally on fast storage for the overhead ratio (≈1.7× here).
func BenchmarkJournalOverhead(b *testing.B) {
	for _, journaled := range []bool{false, true} {
		b.Run(fmt.Sprintf("wal=%v", journaled), func(b *testing.B) {
			db := New(0)
			if journaled {
				w, err := wal.Open(b.TempDir(), wal.Options{})
				if err != nil {
					b.Fatalf("Open: %v", err)
				}
				defer w.Close()
				db.Journal(w)
			}
			pts := make([]telemetry.Point, 128)
			for i := range pts {
				pts[i] = telemetry.Point{
					Name:   "node.temp.celsius",
					Labels: telemetry.Labels{"node": fmt.Sprintf("node%03d", i), "rack": fmt.Sprintf("r%d", i/16)},
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range pts {
					pts[j].Time = time.Duration(i) * time.Millisecond
					pts[j].Value = float64(i)
				}
				if err := db.AppendBatch(pts); err != nil {
					b.Fatalf("AppendBatch: %v", err)
				}
			}
		})
	}
}

// memJournal keeps every record payload in memory, in append order.
type memJournal struct {
	mu   sync.Mutex
	recs [][]byte
}

func (j *memJournal) Append(kind uint8, payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, append([]byte(nil), payload...))
	return uint64(len(j.recs)), nil
}

// Shape of the replayed journal: a facility's hw and pfs sweeps, as modad
// journals them.
const (
	replayNodes    = 2048
	replayRackSize = 64
	replayOSTs     = 32
	replayBatches  = 220
	replayStep     = 30 * time.Second
	replayRetain   = 2 * time.Hour
)

// replayRules are modad's rollups on the replayed metrics.
var replayRules = []RollupRule{
	{Metric: "node.temp.celsius", Step: 5 * time.Minute, Agg: AggMean, Retention: 24 * time.Hour},
	{Metric: "pfs.ost.lat_ms", Step: 5 * time.Minute, Agg: AggP95, Retention: 24 * time.Hour},
}

// newReplayDB returns an empty store with replayRules registered.
func newReplayDB(tb testing.TB) *DB {
	db, err := newReplayStore()
	if err != nil {
		tb.Fatalf("AddRollup: %v", err)
	}
	return db
}

// facilityPoints returns one sweep of a facility's hw and pfs series: nodes
// nodes x 5 metrics labelled node and rack, plus replayOSTs OSTs x 4
// metrics labelled ost. Times and values are left for the caller to set.
func facilityPoints(nodes int) []telemetry.Point {
	nodeMetrics := []string{"node.cpu.util", "node.power.watts", "node.temp.celsius", "node.mem.used_gb", "node.cores.used"}
	ostMetrics := []string{"pfs.ost.mbps", "pfs.ost.queue", "pfs.ost.busy_frac", "pfs.ost.lat_ms"}
	var pts []telemetry.Point
	for n := 0; n < nodes; n++ {
		l := telemetry.Labels{"node": fmt.Sprintf("node%04d", n), "rack": fmt.Sprintf("r%02d", n/replayRackSize)}
		for _, m := range nodeMetrics {
			pts = append(pts, telemetry.Point{Name: m, Labels: l})
		}
	}
	for o := 0; o < replayOSTs; o++ {
		l := telemetry.Labels{"ost": fmt.Sprintf("ost%02d", o)}
		for _, m := range ostMetrics {
			pts = append(pts, telemetry.Point{Name: m, Labels: l})
		}
	}
	return pts
}

// sweepFacility appends sweeps rounds of pts, replayStep apart, to db.
func sweepFacility(db *DB, pts []telemetry.Point, sweeps int) error {
	for b := 0; b < sweeps; b++ {
		for i := range pts {
			pts[i].Time = time.Duration(b+1) * replayStep
			pts[i].Value = float64((b*31+i*7)%997) / 10
		}
		if err := db.AppendBatch(pts); err != nil {
			return err
		}
	}
	return nil
}

// replayJournal is built once per process: replayBatches sweeps of 2048
// nodes x 5 metrics labelled node and rack, plus 32 OSTs x 4 metrics
// labelled ost — 10,368 series — journaled through AppendBatch.
var replayJournal = sync.OnceValues(func() (*memJournal, error) {
	db, err := newReplayStore()
	if err != nil {
		return nil, err
	}
	j := &memJournal{}
	db.Journal(j)
	return j, sweepFacility(db, facilityPoints(replayNodes), replayBatches)
})

// newReplayStore returns an empty store with replayRules registered.
func newReplayStore() (*DB, error) {
	db := New(replayRetain)
	for _, rule := range replayRules {
		if err := db.AddRollup(rule); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// BenchmarkApplyWAL replays a journal shaped like a served facility's —
// replayBatches sweeps of 10,368 series, ~2.28M points — into a fresh
// store per iteration: the tsdb half of recovery, decoding each record and
// resolving its points to series. BenchmarkRecovery (internal/wal) covers
// the other half, reading and checking the frames.
func BenchmarkApplyWAL(b *testing.B) {
	j, err := replayJournal()
	if err != nil {
		b.Fatalf("build journal: %v", err)
	}
	var points int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := newReplayDB(b)
		for _, rec := range j.recs {
			if err := db.ApplyWAL(rec); err != nil {
				b.Fatalf("ApplyWAL: %v", err)
			}
		}
		points = int(db.Appended())
	}
	b.ReportMetric(float64(points), "points/op")
}

// Shape of the restored snapshot: a stress-scale facility, 10,240 nodes x 5
// metrics plus the OSTs (51,328 series), restoreSweeps sweeps deep.
const (
	restoreNodes  = 10240
	restoreSweeps = 30
)

// restoreSnapshot is built once per process: the Snapshot of a store that
// took restoreSweeps facility sweeps with modad's rollups registered, so it
// carries raw samples, flushed rollup samples and open rollup buckets.
var restoreSnapshot = sync.OnceValues(func() ([]byte, error) {
	db, err := newReplayStore()
	if err != nil {
		return nil, err
	}
	if err := sweepFacility(db, facilityPoints(restoreNodes), restoreSweeps); err != nil {
		return nil, err
	}
	return db.Snapshot()
})

// BenchmarkRestoreSnapshot restores a stress-scale snapshot (~1.5M samples)
// into a fresh store per iteration: the snapshot half of recovery, which
// ApplyWAL's tail replay then completes.
func BenchmarkRestoreSnapshot(b *testing.B) {
	snap, err := restoreSnapshot()
	if err != nil {
		b.Fatalf("build snapshot: %v", err)
	}
	var series int
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := newReplayDB(b)
		if err := db.RestoreSnapshot(snap); err != nil {
			b.Fatalf("RestoreSnapshot: %v", err)
		}
		series = db.NumSeries()
	}
	b.ReportMetric(float64(series), "series/op")
}
