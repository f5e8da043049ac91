package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
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
// the map's iteration order: replay matches labels in any order, so the
// order carries no meaning and sorting would cost the hot path an
// allocation.
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

// DecodeError reports a malformed journal record or snapshot payload.
// Replay stops at the first bad record: the log holds only accepted
// appends, so a record that does not decode is damage, not data.
type DecodeError struct {
	Reason string
	// Snapshot marks an error of RestoreSnapshot; Offset is then the byte
	// offset in the payload where it was found (for a series that fails
	// validation, the offset where that series starts).
	Snapshot bool
	Offset   int
}

func (e *DecodeError) Error() string {
	if e.Snapshot {
		return fmt.Sprintf("tsdb: restore snapshot: offset %d: %s", e.Offset, e.Reason)
	}
	return "tsdb: journal decode: " + e.Reason
}

// scanString reads one uvarint-prefixed string in place.
func scanString(buf []byte) (s, rest []byte, ok bool) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return nil, nil, false
	}
	return buf[sz : sz+int(n)], buf[sz+int(n):], true
}

// decodeString reads one uvarint-prefixed string.
func decodeString(buf []byte) (string, []byte, error) {
	s, rest, ok := scanString(buf)
	if !ok {
		return "", nil, &DecodeError{Reason: "truncated string"}
	}
	return string(s), rest, nil
}

// decodePointEnc decodes one point, returning the remaining buffer. The
// label count is read from the record, so it is checked against the bytes
// left before anything is sized by it: each label takes at least its two
// length bytes.
func decodePointEnc(buf []byte) (telemetry.Point, []byte, error) {
	var p telemetry.Point
	var err error
	if p.Name, buf, err = decodeString(buf); err != nil {
		return p, nil, err
	}
	nl, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return p, nil, &DecodeError{Reason: "truncated label count"}
	}
	buf = buf[sz:]
	if nl > uint64(len(buf)/2) {
		return p, nil, &DecodeError{Reason: fmt.Sprintf("label count %d exceeds the %d bytes left", nl, len(buf))}
	}
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
		return p, nil, &DecodeError{Reason: "truncated time"}
	}
	buf = buf[sz:]
	if len(buf) < 8 {
		return p, nil, &DecodeError{Reason: "truncated value"}
	}
	p.Time = time.Duration(t)
	p.Value = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	return p, buf[8:], nil
}

// maxScanLabels is the widest label set the in-place scan resolves; a wider
// record takes the decoding path. Telemetry identities carry a handful of
// labels, so replay never needs more.
const maxScanLabels = 8

// encPoint is one journaled point scanned in place: name and label pairs
// alias the record bytes, and h is the identity hash identityOf would
// compute for the decoded point.
type encPoint struct {
	name  []byte
	pairs [maxScanLabels][2][]byte
	nl    int
	h     uint64
	t     time.Duration
	v     float64
}

// scanPointEnc reads one encoded point into ep without allocating and
// returns the remaining buffer. The identity hash is identityOf's, computed
// from the bytes: maphash.Bytes and maphash.String agree on equal content,
// and the XOR over label pairs ignores their order. ok is false for any
// record the scan does not resolve — malformed, wider than maxScanLabels,
// or repeating a label key (the decoded map keeps only the last value, so
// the encoded pairs are not the identity) — and the caller then takes the
// decoding path, which reports malformed input.
func scanPointEnc(buf []byte, ep *encPoint) (rest []byte, ok bool) {
	if ep.name, buf, ok = scanString(buf); !ok {
		return nil, false
	}
	nl, sz := binary.Uvarint(buf)
	if sz <= 0 || nl > maxScanLabels {
		return nil, false
	}
	buf = buf[sz:]
	ep.nl = int(nl)
	var lh uint64
	for i := 0; i < ep.nl; i++ {
		var k, v []byte
		if k, buf, ok = scanString(buf); !ok {
			return nil, false
		}
		if v, buf, ok = scanString(buf); !ok {
			return nil, false
		}
		for _, kv := range ep.pairs[:i] {
			if string(kv[0]) == string(k) {
				return nil, false
			}
		}
		ep.pairs[i] = [2][]byte{k, v}
		lh ^= mix(maphash.Bytes(hashSeed, k)) ^ maphash.Bytes(hashSeed, v)
	}
	ep.h = mix(maphash.Bytes(hashSeed, ep.name) ^ lh)
	t, sz := binary.Varint(buf)
	if sz <= 0 || len(buf)-sz < 8 {
		return nil, false
	}
	ep.t = time.Duration(t)
	ep.v = math.Float64frombits(binary.LittleEndian.Uint64(buf[sz:]))
	return buf[sz+8:], true
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
//
// Each series is resolved once: a point whose series exists is matched
// straight from the record bytes (scanPointEnc, shard.lookupEnc) in any
// label order, with no allocation. Only the first point of a series, or a
// record the scan cannot resolve, is decoded into a telemetry.Point, which
// creates the series or reports the malformed input.
func (db *DB) ApplyWAL(payload []byte) error {
	var ep encPoint
	for len(payload) > 0 {
		rest, ok, err := db.replayScanned(payload, &ep)
		if !ok {
			rest, err = db.replayDecoded(payload)
		}
		if err != nil {
			return err
		}
		payload = rest
	}
	return nil
}

// replayScanned applies the next point of payload if the in-place scan
// resolves it to an existing series; ok is false when it does not, and
// nothing was applied.
func (db *DB) replayScanned(payload []byte, ep *encPoint) (rest []byte, ok bool, err error) {
	if rest, ok = scanPointEnc(payload, ep); !ok {
		return nil, false, nil
	}
	sh := &db.shards[shardIndex(ep.h)]
	sh.mu.Lock()
	if s := sh.lookupEnc(ep); s != nil {
		err = db.replayLocked(sh, s, ep.t, ep.v)
	} else {
		ok = false
	}
	sh.mu.Unlock()
	return rest, ok, err
}

// replayDecoded decodes the next point of payload, resolves it to its
// series with one lookup — creating the series on first sight — and
// applies it.
func (db *DB) replayDecoded(payload []byte) ([]byte, error) {
	p, rest, err := decodePointEnc(payload)
	if err != nil {
		return nil, err
	}
	h := identityOf(&p)
	sh := &db.shards[shardIndex(h)]
	sh.mu.Lock()
	s, err := db.seriesLocked(sh, &p, h)
	if err == nil {
		err = db.replayLocked(sh, s, p.Time, p.Value)
	}
	sh.mu.Unlock()
	return rest, err
}

// replayLocked applies one journaled sample of s under the shard lock
// through the shared append core, without journaling it, skipping samples
// the snapshot this replay tails already covers.
func (db *DB) replayLocked(sh *shard, s *memSeries, t time.Duration, v float64) error {
	if n := len(s.samples); n > 0 && t < s.samples[n-1].Time {
		return nil // already reflected by the snapshot
	}
	return db.appendSeriesLocked(sh, s, t, v, nil)
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
