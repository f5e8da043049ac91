package tsdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
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

// escapesFixture is a store whose names and labels carry everything
// json.Marshal escapes — HTML characters, quote, backslash, U+2028 and
// U+2029, control characters — and non-ASCII text, with a rollup; invalid
// adds a label value that is not valid UTF-8.
func escapesFixture(t *testing.T, invalid bool) *DB {
	t.Helper()
	db := New(0)
	if err := db.AddRollup(RollupRule{Metric: "m<&>", Step: 10 * time.Second, Agg: AggP95, Retention: time.Hour}); err != nil {
		t.Fatal(err)
	}
	sets := []telemetry.Labels{
		{"q\"uote": "back\\slash", "sep": "a\u2028b\u2029c"},
		{"ctl": "\x00\x01\t\n\r\x1f\x7f", "ünï": "cödé ✓"},
		{"html": "<script>&amp;</script>"},
	}
	if invalid {
		sets = append(sets, telemetry.Labels{"bad": "x\xffy"})
	}
	for i := 0; i < 5; i++ {
		for j, l := range sets {
			p := telemetry.Point{Name: "m<&>", Labels: l, Time: time.Duration(i*7) * time.Second, Value: float64(i) - 0.5*float64(j)}
			if err := db.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// roundTrip restores snap into a fresh store with rules registered and
// returns the restored store's own snapshot.
func roundTrip(t *testing.T, snap []byte, rules ...RollupRule) (*DB, []byte) {
	t.Helper()
	db := New(0)
	for _, r := range rules {
		if err := db.AddRollup(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	again, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return db, again
}

// TestRestoreSnapshotRoundTrip restores Snapshot's output and snapshots the
// result again: the bytes must be identical, and equal to what the
// json.Unmarshal reference restores. A label that is not valid UTF-8 is
// the one exception, and the same for both: json.Marshal writes it as
// \ufffd, which decodes to U+FFFD itself.
func TestRestoreSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *DB
	}{
		{"fixture", snapshotFixture(t)},
		{"escapes", escapesFixture(t, false)},
		{"invalid-utf8", escapesFixture(t, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := tc.db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			db, again := roundTrip(t, snap)
			want := bytes.ReplaceAll(snap, []byte(`x\ufffdy`), []byte("x\uFFFDy"))
			if !bytes.Equal(again, want) {
				t.Fatalf("round trip changed the snapshot:\n got: %s\nwant: %s", again, want)
			}
			if db.Appended() != tc.db.Appended() || db.NumSeries() != tc.db.NumSeries() {
				t.Fatalf("restored %d appended / %d series, want %d / %d",
					db.Appended(), db.NumSeries(), tc.db.Appended(), tc.db.NumSeries())
			}
			ref := New(0)
			if err := restoreReference(ref, snap); err != nil {
				t.Fatal(err)
			}
			if refSnap, _ := ref.Snapshot(); !bytes.Equal(again, refSnap) {
				t.Fatalf("restore differs from the json.Unmarshal reference:\n got: %s\nwant: %s", again, refSnap)
			}
		})
	}
}

// TestRestoreSnapshotAcceptsLayout restores the fixture's snapshot indented,
// with every object's members reversed, and with an unregistered rollup
// backfilled: the restored state is the canonical one.
func TestRestoreSnapshotAcceptsLayout(t *testing.T) {
	snap, err := snapshotFixture(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, snap, "\r\n", " \t"); err != nil {
		t.Fatal(err)
	}
	reversed := `{"series":[{"samples":[{"Value":1,"Time":0}],"labels":{"node":"n1"},"name":"node.cpu.util"}],"appended":1}`
	canonical := `{"appended":1,"series":[{"name":"node.cpu.util","labels":{"node":"n1"},"samples":[{"Time":0,"Value":1}]}]}`
	for _, tc := range []struct{ name, in, want string }{
		{"indented", indented.String(), string(snap)},
		{"reversed", reversed, canonical},
	} {
		if _, got := roundTrip(t, []byte(tc.in)); string(got) != tc.want {
			t.Errorf("%s: restored to\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
	rule := RollupRule{Metric: "node.cpu.util", Step: time.Minute, Agg: AggSum}
	_, got := roundTrip(t, []byte(canonical), rule)
	want := `{"appended":1,"series":[{"name":"node.cpu.util","labels":{"node":"n1"},"samples":[{"Time":0,"Value":1}],"rollups":[{"step":60000000000,"agg":1,"bucket":0,"values":[1]}]}]}`
	if string(got) != want {
		t.Errorf("backfill: restored to\n%s\nwant\n%s", got, want)
	}
}

// TestRestoreSnapshotRejects feeds payloads outside the snapshot grammar,
// and snapshots whose series fail validation: each is a *DecodeError at
// the offset of the fault. Series are created as they are read, so only a
// series before the fault is left behind.
func TestRestoreSnapshotRejects(t *testing.T) {
	series := func(body string) string { return `{"appended":2,"series":[` + body + `]}` }
	const at = len(`{"appended":2,"series":[`)
	for _, tc := range []struct {
		name, in string
		offset   int
		reason   string
	}{
		{"empty", ``, 0, `expected '{'`},
		{"null", `null`, 0, `expected '{'`},
		{"null series", `{"series":null}`, 10, `expected '['`},
		{"null labels", series(`{"name":"m","labels":null}`), at + 21, `expected '{'`},
		{"unknown key", `{"appended":1,"extra":2}`, 14, `unknown key "extra"`},
		{"case-variant key", `{"Appended":1}`, 1, `unknown key "Appended"`},
		{"case-variant sample key", series(`{"name":"m","samples":[{"time":1,"Value":1}]}`), at + 24, `unknown key "time"`},
		{"escaped key", series(`{"n\u0061me":"m"}`), at + 1, `unknown key "n\u0061me"`},
		{"repeated key", `{"appended":1,"appended":2}`, 14, `repeated key "appended"`},
		{"repeated label key", series(`{"name":"m","labels":{"a":"1","a":"2"}}`), at + 30, `repeated label key "a"`},
		{"exponent time", series(`{"name":"m","samples":[{"Time":1e3,"Value":1}]}`), at + 31, `number 1e3 is not an int64`},
		{"fraction step", series(`{"name":"m","rollups":[{"step":1.0}]}`), at + 31, `number 1.0 is not an int64`},
		{"time overflow", series(`{"name":"m","samples":[{"Time":9223372036854775808}]}`), at + 31, `is not an int64`},
		{"negative appended", `{"appended":-1}`, 12, `number -1 is not a uint64`},
		{"value overflow", series(`{"name":"m","samples":[{"Value":1e400}]}`), at + 32, `number 1e400 is not a float64`},
		{"leading zero", `{"appended":01}`, 13, `expected ',' or '}'`},
		{"bare minus", `{"appended":-}`, 12, `expected a number`},
		{"dangling point", `{"appended":1.}`, 14, `expected a digit after the decimal point`},
		{"control character", series(`{"name":"a` + "\x01" + `"}`), at + 10, `control character in string`},
		{"bad escape", series(`{"name":"\x"}`), at + 8, `invalid string`},
		{"truncated", `{"appended":1,"series":[{"name":"m","samples":[{"Time":1`, 56, `expected ',' or '}'`},
		{"unterminated", series(`{"name":"m`), at + 8, `unterminated string`},
		{"trailing comma", series(`{"name":"m"},`), at + 13, `expected '{'`},
		{"trailing data", `{"appended":1} {}`, 15, `data after the snapshot`},
		{"empty name", series(`{"labels":{"a":"1"}}`), at, `series has no name`},
		{"duplicate series", series(`{"name":"m","labels":{"a":"1"}},{"name":"m","labels":{"a":"1"}}`), at + 32, `duplicate series m{a=1}`},
		{"out of order", series(`{"name":"m","samples":[{"Time":10,"Value":1},{"Time":5,"Value":2}]}`), at, `samples not in increasing time order`},
		{"repeated time", series(`{"name":"m","samples":[{"Time":10,"Value":1},{"Time":10,"Value":2}]}`), at, `samples not in increasing time order`},
		{"rollup out of order", series(`{"name":"m","rollups":[{"step":10,"samples":[{"Time":20},{"Time":10}]}]}`), at, `rollup 10ns mean samples not in increasing time order`},
		{"rollup step zero", series(`{"name":"m","rollups":[{"agg":3}]}`), at, `rollup step 0s is not positive`},
	} {
		db := New(0)
		err := db.RestoreSnapshot([]byte(tc.in))
		var de *DecodeError
		if !errors.As(err, &de) || !de.Snapshot {
			t.Errorf("%s: error %v (%T), want a snapshot *DecodeError", tc.name, err, err)
			continue
		}
		if de.Offset != tc.offset || !strings.Contains(de.Reason, tc.reason) || !strings.HasPrefix(err.Error(), "tsdb: restore snapshot: ") {
			t.Errorf("%s: error %q at offset %d, want %q at offset %d", tc.name, err, de.Offset, tc.reason, tc.offset)
		}
		before := 0
		if tc.name == "duplicate series" || tc.name == "trailing comma" {
			before = 1
		}
		if n := db.NumSeries(); n != before {
			t.Errorf("%s: %d series restored, want %d before the fault", tc.name, n, before)
		}
	}
}

// TestRestoreSnapshotOutOfOrder is the case the time-order check closes: a
// hand-written snapshot whose samples run backwards used to restore, after
// which an append between them was accepted and the series' binary searches
// ran over unsorted samples.
func TestRestoreSnapshotOutOfOrder(t *testing.T) {
	db := New(0)
	snap := `{"appended":2,"series":[{"name":"m","samples":[{"Time":10,"Value":1},{"Time":5,"Value":2}]}]}`
	err := db.RestoreSnapshot([]byte(snap))
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("RestoreSnapshot: %v, want a *DecodeError", err)
	}
	if db.NumSeries() != 0 || db.Appended() != 0 {
		t.Fatalf("rejected snapshot left %d series / %d appended", db.NumSeries(), db.Appended())
	}
}
