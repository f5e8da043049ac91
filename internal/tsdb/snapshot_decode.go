package tsdb

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"autoloop/internal/telemetry"
)

// The keys of each object in the snapshot grammar (see snapshot.go). An
// object's member is identified by its key's index here.
var (
	snapKeys   = []string{"appended", "series"}
	seriesKeys = []string{"name", "labels", "samples", "rollups"}
	rollupKeys = []string{"step", "agg", "retention", "bucket", "values", "samples"}
	sampleKeys = []string{"Time", "Value"}
)

// snapDecoder reads a snapshot payload in one forward pass without
// reflection, creating each series in db as soon as it has been read.
// Arrays are read into reused scratch buffers and copied out once at their
// exact length, so allocation follows the bytes actually read.
type snapDecoder struct {
	db    *DB
	rules []RollupRule
	data  []byte
	pos   int
	strs  map[string]string // interned strings: names, label keys and values

	ss      seriesSnap         // the series being read; its Rollups are reused
	labels  telemetry.Labels   // the series' labels; create copies them
	samples []telemetry.Sample // scratch a sample array is read into
	values  []float64          // scratch an open bucket's values are read into
}

// decode reads the whole payload and returns its appended counter.
func (d *snapDecoder) decode() (appended uint64, err error) {
	err = d.object(snapKeys, func(k int) (err error) {
		if k == 0 {
			appended, err = d.uint()
			return err
		}
		return d.array(d.series)
	})
	if err != nil {
		return 0, err
	}
	if d.ws(); d.pos != len(d.data) {
		return 0, d.fail("data after the snapshot")
	}
	return appended, nil
}

// series reads one series and restores it.
func (d *snapDecoder) series() error {
	at := d.pos
	ss := &d.ss
	*ss = seriesSnap{Rollups: ss.Rollups[:0]}
	clear(d.labels)
	err := d.object(seriesKeys, func(k int) (err error) {
		switch k {
		case 0:
			ss.Name, err = d.str()
		case 1:
			err = d.labelSet()
		case 2:
			ss.Samples, err = d.sampleArray()
		default:
			err = d.array(d.rollup)
		}
		return err
	})
	if err != nil {
		return err
	}
	if len(d.labels) > 0 {
		ss.Labels = d.labels
	}
	if err := d.db.restoreSeries(ss, d.rules); err != nil {
		return failAt(at, "%v", err)
	}
	return nil
}

// labelSet reads a series' label object into d.labels.
func (d *snapDecoder) labelSet() error {
	if d.labels == nil {
		d.labels = make(telemetry.Labels)
	}
	return d.list('{', '}', func() error {
		at := d.pos
		k, err := d.str()
		if err != nil {
			return err
		}
		if _, dup := d.labels[k]; dup {
			return failAt(at, "repeated label key %q", k)
		}
		if err := d.colon(); err != nil {
			return err
		}
		v, err := d.str()
		d.labels[k] = v
		return err
	})
}

// rollup reads one rollup state into the current series.
func (d *snapDecoder) rollup() error {
	var rs rollupSnap
	err := d.object(rollupKeys, func(k int) (err error) {
		var n int64
		switch k {
		case 0:
			n, err = d.int(64)
			rs.Step = time.Duration(n)
		case 1:
			n, err = d.int(strconv.IntSize)
			rs.Agg = Agg(n)
		case 2:
			n, err = d.int(64)
			rs.Retention = time.Duration(n)
		case 3:
			rs.Bucket, err = d.int(64)
		case 4:
			rs.Values, err = d.floatArray()
		default:
			rs.Samples, err = d.sampleArray()
		}
		return err
	})
	d.ss.Rollups = append(d.ss.Rollups, rs)
	return err
}

// sampleArray reads an array of samples, returning nil for an empty one.
func (d *snapDecoder) sampleArray() ([]telemetry.Sample, error) {
	d.samples = d.samples[:0]
	if err := d.array(d.sample); err != nil || len(d.samples) == 0 {
		return nil, err
	}
	out := make([]telemetry.Sample, len(d.samples))
	copy(out, d.samples)
	return out, nil
}

// sample reads one {"Time","Value"} object onto d.samples. The layout
// json.Marshal writes is matched directly; any other goes through object.
func (d *snapDecoder) sample() error {
	if at := d.pos; d.literal(sampleHead) {
		n, err := d.int(64)
		if err == nil && d.literal(sampleMid) {
			v, err := d.float()
			if err == nil && d.literal("}") {
				d.samples = append(d.samples, telemetry.Sample{Time: time.Duration(n), Value: v})
				return nil
			}
		}
		d.pos = at
	}
	var smp telemetry.Sample
	err := d.object(sampleKeys, func(k int) (err error) {
		if k == 0 {
			var n int64
			n, err = d.int(64)
			smp.Time = time.Duration(n)
		} else {
			smp.Value, err = d.float()
		}
		return err
	})
	d.samples = append(d.samples, smp)
	return err
}

// The fixed parts of the sample layout json.Marshal writes, around the
// numbers.
const (
	sampleHead = `{"Time":`
	sampleMid  = `,"Value":`
)

// literal consumes lit if it comes next.
func (d *snapDecoder) literal(lit string) bool {
	if rest := d.data[d.pos:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// floatArray reads an array of numbers, returning nil for an empty one.
func (d *snapDecoder) floatArray() ([]float64, error) {
	d.values = d.values[:0]
	err := d.array(func() error {
		v, err := d.float()
		d.values = append(d.values, v)
		return err
	})
	if err != nil || len(d.values) == 0 {
		return nil, err
	}
	out := make([]float64, len(d.values))
	copy(out, d.values)
	return out, nil
}

// object reads an object whose keys are drawn from keys, each at most
// once, calling member with the key's index to read the value.
func (d *snapDecoder) object(keys []string, member func(k int) error) error {
	var seen uint
	return d.list('{', '}', func() error {
		at := d.pos
		raw, plain, err := d.rawString()
		if err != nil {
			return err
		}
		k := -1
		for i, key := range keys {
			if plain && string(raw) == key {
				k = i
				break
			}
		}
		switch {
		case k < 0:
			return failAt(at, "unknown key %s", d.data[at:d.pos])
		case seen&(1<<k) != 0:
			return failAt(at, "repeated key %q", keys[k])
		}
		seen |= 1 << k
		if err := d.colon(); err != nil {
			return err
		}
		return member(k)
	})
}

// array reads an array, calling elem at the start of each element.
func (d *snapDecoder) array(elem func() error) error {
	return d.list('[', ']', elem)
}

// list reads open, then zero or more comma-separated items, then close;
// an object's item reads a key, its colon and its value. Whitespace is
// skipped before every token.
func (d *snapDecoder) list(open, close byte, item func() error) error {
	if !d.token(open) {
		return d.fail("expected %q", open)
	}
	if d.token(close) {
		return nil
	}
	for {
		d.ws()
		if err := item(); err != nil {
			return err
		}
		switch {
		case d.token(','):
		case d.token(close):
			return nil
		default:
			return d.fail("expected ',' or %q", close)
		}
	}
}

// colon reads the ':' after an object key and the whitespace after it.
func (d *snapDecoder) colon() error {
	if !d.token(':') {
		return d.fail("expected ':' after object key")
	}
	d.ws()
	return nil
}

// token skips whitespace and consumes c if it comes next.
func (d *snapDecoder) token(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// ws skips JSON whitespace.
func (d *snapDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// fail returns a DecodeError at the current offset.
func (d *snapDecoder) fail(format string, args ...any) error {
	return failAt(d.pos, format, args...)
}

// failAt returns a DecodeError at offset at.
func failAt(at int, format string, args ...any) error {
	return &DecodeError{Reason: fmt.Sprintf(format, args...), Snapshot: true, Offset: at}
}

// str reads a string value, interned.
func (d *snapDecoder) str() (string, error) {
	at := d.pos
	raw, plain, err := d.rawString()
	if err != nil {
		return "", err
	}
	if plain {
		if s, ok := d.strs[string(raw)]; ok {
			return s, nil
		}
		s := string(raw)
		d.strs[s] = s
		return s, nil
	}
	var s string
	if err := json.Unmarshal(d.data[at:d.pos], &s); err != nil {
		return "", failAt(at, "invalid string: %v", err)
	}
	return s, nil
}

// rawString reads a string token and returns the bytes between its quotes.
// plain reports that they are the string itself: no escape, valid UTF-8.
// Escapes are only skipped here; a string that is not plain is decoded (and
// its escapes checked) by the caller.
func (d *snapDecoder) rawString() (raw []byte, plain bool, err error) {
	b := d.data
	if d.pos >= len(b) || b[d.pos] != '"' {
		return nil, false, d.fail("expected a string")
	}
	start := d.pos + 1
	plain, ascii := true, true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			raw, d.pos = b[start:i], i+1
			return raw, plain && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case c < ' ':
			return nil, false, failAt(i, "control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, failAt(d.pos, "unterminated string")
}

// number reads a token of JSON's number grammar and reports whether it is an
// integer, with neither fraction nor exponent.
func (d *snapDecoder) number() (raw []byte, integer bool, err error) {
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, d.fail("expected a number")
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false, failAt(i, "expected a digit after the decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, failAt(i, "expected a digit in the exponent")
		}
		i = j
	}
	raw, d.pos = b[d.pos:i], i
	return raw, integer, nil
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// int reads an integer that fits a signed integer of the given bit size.
func (d *snapDecoder) int(bits int) (int64, error) {
	at := d.pos
	raw, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	n, perr := strconv.ParseInt(string(raw), 10, bits)
	if !integer || perr != nil {
		return 0, failAt(at, "number %s is not an int%d", raw, bits)
	}
	return n, nil
}

// uint reads an integer that fits a uint64.
func (d *snapDecoder) uint() (uint64, error) {
	at := d.pos
	raw, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	n, perr := strconv.ParseUint(string(raw), 10, 64)
	if !integer || perr != nil {
		return 0, failAt(at, "number %s is not a uint64", raw)
	}
	return n, nil
}

// float reads a number that fits a float64.
func (d *snapDecoder) float() (float64, error) {
	at := d.pos
	raw, _, err := d.number()
	if err != nil {
		return 0, err
	}
	f, perr := strconv.ParseFloat(string(raw), 64)
	if perr != nil {
		return 0, failAt(at, "number %s is not a float64", raw)
	}
	return f, nil
}
