package tsdb

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// snapshotFixture builds a small store with several metrics, label sets of
// different widths (none, one, two and three labels), values in both orders
// of their label keys, and a rollup, appended in an order unlike the sorted
// one.
func snapshotFixture(t *testing.T) *DB {
	t.Helper()
	db := New(0)
	if err := db.AddRollup(RollupRule{Metric: "node.temp.celsius", Step: 20 * time.Second, Agg: AggMax}); err != nil {
		t.Fatal(err)
	}
	sets := []telemetry.Labels{
		{"node": "n10", "rack": "r1"},
		{"node": "n02", "rack": "r0"},
		{"rack": "r0"},
		{"node": "n02", "rack": "r0", "job": "7"},
		nil,
		{"node": "n1"},
	}
	for i := 0; i < 4; i++ {
		for _, name := range []string{"node.temp.celsius", "facility.pue", "node.cpu.util"} {
			for j, l := range sets {
				p := telemetry.Point{Name: name, Labels: l, Time: time.Duration(i*15) * time.Second, Value: float64(i*10 + j)}
				if err := db.Append(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db
}

// TestSnapshotBytesUnchanged pins the snapshot encoding of the fixture: the
// digest was recorded from the implementation that ordered series by
// re-deriving Labels.Key() per comparison, so sorting by the precomputed
// key must keep the bytes identical.
func TestSnapshotBytesUnchanged(t *testing.T) {
	const want = "eacac2db218eb4d8e5686c0eae964ce5dc3182595c22809f3d0f28a0290340b1"
	snap, err := snapshotFixture(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot sha256 %s, want %s; bytes:\n%s", got, want, snap)
	}
}
