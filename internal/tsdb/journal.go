package tsdb

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// Write-ahead journaling. When a Journaler is attached, every accepted
// append (including an equal-timestamp overwrite, which mutates the tail) is
// encoded and emitted as a wal.KindTSDBAppend record while the owning
// shard's write lock is still held, so the per-series record order in the
// log is exactly the apply order even under concurrent appenders. Rejected
// points (empty name, NaN, out-of-order) never reach the journal: the log
// holds only mutations, and replaying it cannot fail validation.
//
// Recovery is the inverse: RestoreSnapshot rebuilds the store from the
// newest snapshot, then RestoreFrom (or ApplyWAL per record) replays the WAL
// tail. Both must run before Journal is attached — replay goes through a
// non-journaling apply path, but appends racing a restore would interleave
// journal records with replayed ones.

// Journaler is the sink accepted appends are logged to; *wal.WAL satisfies
// it. Append must be safe for concurrent use and must preserve call order
// per caller (the WAL's group-commit buffer does).
type Journaler interface {
	Append(kind uint8, payload []byte) (uint64, error)
}

// Journal attaches the write-ahead journal. It must be called before
// ingestion starts (and after any RestoreSnapshot/RestoreFrom): the field is
// read on the append hot path without synchronization, relying on the
// happens-before edge of starting the appender goroutines.
func (db *DB) Journal(j Journaler) { db.journal = j }

// encBuf is the pooled encode scratch of the journal hot path; the buffer is
// reused across appends so a steady-state journaled append allocates nothing.
type encBuf struct{ b []byte }

var encScratch = sync.Pool{New: func() interface{} { return new(encBuf) }}

// appendSampleEnc appends one accepted sample of s in its binary journal
// encoding to buf:
//
//	uvarint len(name), name,
//	uvarint len(labels), then per label uvarint len(k), k, uvarint len(v), v,
//	varint time (ns), 8B little-endian IEEE-754 value.
//
// The identity comes from the series' stored name and labels, so every
// ingest path (by point or by handle) writes the same record. Label order is
// the map's iteration order — the decoder rebuilds a map, so the order
// carries no meaning and sorting would cost the hot path an allocation.
func appendSampleEnc(buf []byte, s *memSeries, t time.Duration, v float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s.name)))
	buf = append(buf, s.name...)
	buf = binary.AppendUvarint(buf, uint64(len(s.labels)))
	for k, lv := range s.labels {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(lv)))
		buf = append(buf, lv...)
	}
	buf = binary.AppendVarint(buf, int64(t))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	return buf
}

// decodeString reads one uvarint-prefixed string.
func decodeString(buf []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return "", nil, fmt.Errorf("tsdb: journal decode: truncated string")
	}
	return string(buf[sz : sz+int(n)]), buf[sz+int(n):], nil
}

// decodePointEnc decodes one point, returning the remaining buffer.
func decodePointEnc(buf []byte) (telemetry.Point, []byte, error) {
	var p telemetry.Point
	var err error
	if p.Name, buf, err = decodeString(buf); err != nil {
		return p, nil, err
	}
	nl, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return p, nil, fmt.Errorf("tsdb: journal decode: truncated label count")
	}
	buf = buf[sz:]
	if nl > 0 {
		p.Labels = make(telemetry.Labels, nl)
		for i := uint64(0); i < nl; i++ {
			var k, v string
			if k, buf, err = decodeString(buf); err != nil {
				return p, nil, err
			}
			if v, buf, err = decodeString(buf); err != nil {
				return p, nil, err
			}
			p.Labels[k] = v
		}
	}
	t, sz := binary.Varint(buf)
	if sz <= 0 {
		return p, nil, fmt.Errorf("tsdb: journal decode: truncated time")
	}
	buf = buf[sz:]
	if len(buf) < 8 {
		return p, nil, fmt.Errorf("tsdb: journal decode: truncated value")
	}
	p.Time = time.Duration(t)
	p.Value = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	return p, buf[8:], nil
}

// encoder returns pooled encode scratch when a journal is attached, else
// nil (and the append core then encodes nothing).
func (db *DB) encoder() *encBuf {
	if db.journal == nil {
		return nil
	}
	eb := encScratch.Get().(*encBuf)
	eb.b = eb.b[:0]
	return eb
}

// emitLocked writes the samples encoded into eb as one WAL record and resets
// eb. The caller holds the owning shard's write lock; wal.Append nests its
// own mutex inside the shard lock (never the reverse), so the order is
// deadlock-free.
func (db *DB) emitLocked(eb *encBuf) error {
	if eb == nil || len(eb.b) == 0 {
		return nil
	}
	_, err := db.journal.Append(wal.KindTSDBAppend, eb.b)
	eb.b = eb.b[:0]
	return err
}

func (db *DB) releaseEncoder(eb *encBuf) {
	if eb != nil {
		encScratch.Put(eb)
	}
}

// ApplyWAL applies one wal.KindTSDBAppend record payload (one or more
// encoded points). A point strictly behind its series' tail is skipped
// rather than rejected, and one equal to the tail re-applies as an
// idempotent overwrite: snapshots are taken under live ingestion, so the
// WAL tail being replayed may overlap records the snapshot already
// reflects, and per-series log order equals apply order, which makes
// re-application a no-op.
func (db *DB) ApplyWAL(payload []byte) error {
	for len(payload) > 0 {
		p, rest, err := decodePointEnc(payload)
		if err != nil {
			return err
		}
		h := identityOf(&p)
		sh := &db.shards[shardIndex(h)]
		sh.mu.Lock()
		err = db.replayLocked(sh, &p, h)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		payload = rest
	}
	return nil
}

// replayLocked applies one journaled point under the shard lock, skipping
// points the snapshot this replay tails already covers.
func (db *DB) replayLocked(sh *shard, p *telemetry.Point, h uint64) error {
	if s := sh.lookup(h, p); s != nil {
		if n := len(s.samples); n > 0 && p.Time < s.samples[n-1].Time {
			return nil // already reflected by the snapshot
		}
	}
	return db.appendLocked(sh, p, h, nil)
}

// ReplaySource is the record iterator RestoreFrom consumes; *wal.Reader
// satisfies it.
type ReplaySource interface {
	Next() (wal.Record, error)
}

// RestoreFrom replays every wal.KindTSDBAppend record from src into the
// database, ignoring records of other kinds, until the source reports a
// clean end (io.EOF). Corruption and decode errors are returned as-is. It
// must run before Journal is attached.
func (db *DB) RestoreFrom(src ReplaySource) error {
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if rec.Kind != wal.KindTSDBAppend {
			continue
		}
		if err := db.ApplyWAL(rec.Payload); err != nil {
			return fmt.Errorf("tsdb: replay seq %d: %w", rec.Seq, err)
		}
	}
}
