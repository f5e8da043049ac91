package tsdb

import (
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/telemetry"
)

// numShards is the lock-stripe width of the store. Series are distributed
// across shards by an order-independent hash of their (name, labels)
// identity, so concurrent appenders touching different series contend on
// different locks. A power of two keeps shard selection a mask; 64 stripes
// keep the collision probability low even for wide parallel ingest while
// full-database queries still only take 64 brief read locks.
const numShards = 64

// labelPair is the inverted-index key for one label: every series carrying
// k=v appears on the posting list of {k, v}. A struct key lets lookups build
// the key without allocating a concatenated string.
type labelPair struct{ k, v string }

// memSeries stores one (name, labels) identity's samples in time order.
// Retention drops samples by advancing head; the dead prefix is compacted
// only once it outgrows the live part, so expiry is O(1) amortized instead
// of copying the whole window on every append.
type memSeries struct {
	name   string
	labels telemetry.Labels
	// key is labels.Key(), computed once at creation; query paths sort
	// results by it without re-canonicalizing the label map.
	key     string
	samples []telemetry.Sample
	head    int // index of the first live sample
	// rollups holds the continuous-rollup states attached to this series,
	// one per registered rule matching the series' metric name.
	rollups []*seriesRollup
	// ref is the series' handle: its shard and its slot in shard.series.
	ref telemetry.SeriesRef
}

// live returns the retained samples.
func (s *memSeries) live() []telemetry.Sample { return s.samples[s.head:] }

// truncateBefore drops samples strictly older than cutoff. It runs on every
// append, and until the window fills nothing has expired, so the oldest
// sample is checked before searching.
func (s *memSeries) truncateBefore(cutoff time.Duration) {
	live := s.live()
	if len(live) == 0 || live[0].Time >= cutoff {
		return
	}
	s.head += sort.Search(len(live), func(i int) bool { return live[i].Time >= cutoff })
	if s.head > len(s.samples)-s.head {
		n := copy(s.samples, s.samples[s.head:])
		s.samples = s.samples[:n]
		s.head = 0
	}
}

// rangeBounds binary-searches the live window for [from, to], returning the
// half-open sample index range.
func rangeBounds(live []telemetry.Sample, from, to time.Duration) (lo, hi int) {
	lo = sort.Search(len(live), func(i int) bool { return live[i].Time >= from })
	hi = sort.Search(len(live), func(i int) bool { return live[i].Time > to })
	return lo, hi
}

// shard is one lock stripe: a name-indexed series map plus the shard's slice
// of the inverted label index. All fields are guarded by mu.
type shard struct {
	mu sync.RWMutex
	// byName maps metric name -> label key -> series.
	byName map[string]map[string]*memSeries
	// postings maps k=v -> every series (any metric) carrying that label,
	// in creation order. Posting lists only grow: series are never deleted,
	// retention drops samples, not identities.
	postings map[labelPair][]*memSeries
	// byHash maps the series identity hash to its (rarely >1) collision
	// bucket. The append hot path resolves a point to its series through
	// this map without materializing the canonical label-key string, so
	// steady-state ingestion does not allocate.
	byHash map[uint64][]*memSeries
	// series is the append-only series table SeriesRef slots index. Series
	// are never deleted, so a slot never changes owner.
	series []*memSeries
	// appended counts samples stored via this shard; kept under mu instead
	// of a DB-global atomic so parallel appenders do not bounce one counter
	// cache line. Padding rounds the struct to two cache lines so
	// neighbouring shards in the DB's array never share one.
	appended uint64
	_        [6]uint64
}

// lookup resolves a point to its existing series via the identity hash,
// verifying name and labels against hash collisions. Callers must hold at
// least the read lock.
func (sh *shard) lookup(h uint64, p *telemetry.Point) *memSeries {
	for _, s := range sh.byHash[h] {
		if s.name == p.Name && labelsEqual(s.labels, p.Labels) {
			return s
		}
	}
	return nil
}

// lookupEnc is lookup for a point scanned in place from a journal record:
// the record's name and label pairs are compared with the stored series by
// string-conversion probes, which do not allocate. The scan guarantees
// distinct keys, so equal counts and every pair found mean equal label
// sets, whatever the record's label order. Callers must hold at least the
// read lock.
func (sh *shard) lookupEnc(ep *encPoint) *memSeries {
next:
	for _, s := range sh.byHash[ep.h] {
		if s.name != string(ep.name) || len(s.labels) != ep.nl {
			continue
		}
		for _, kv := range ep.pairs[:ep.nl] {
			if v, ok := s.labels[string(kv[0])]; !ok || v != string(kv[1]) {
				continue next
			}
		}
		return s
	}
	return nil
}

// labelsEqual reports exact equality of two label sets without allocating.
func labelsEqual(a, b telemetry.Labels) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// A SeriesRef packs the issuing DB's tag (bits 40-63), the series' shard
// (bits 32-39) and its slot in that shard's series table (bits 0-31).
const (
	refTagShift   = 40
	refShardShift = 32
	refSlotMask   = 1<<refShardShift - 1
)

// refBase is a DB's tag, pre-shifted into SeriesRef position.
type refBase uint64

// refTags numbers DBs so each tags its handles differently. Tags wrap after
// 2^24 DBs; tag 0 is skipped so the zero SeriesRef is never issued.
var refTags atomic.Uint64

func newRefBase() refBase {
	for {
		if tag := refTags.Add(1) & (1<<(64-refTagShift) - 1); tag != 0 {
			return refBase(tag << refTagShift)
		}
	}
}

// at returns the handle of slot in shard si.
func (b refBase) at(si, slot int) telemetry.SeriesRef {
	return telemetry.SeriesRef(uint64(b) | uint64(si)<<refShardShift | uint64(slot))
}

// refShard is the shard a handle names, masked into range so a foreign
// handle still groups somewhere and fails in resolve instead of panicking.
func refShard(r telemetry.SeriesRef) uint8 {
	return uint8(uint64(r)>>refShardShift) & (numShards - 1)
}

// resolve returns the series a handle names, or nil when the handle is not
// one of this shard's: the zero ref, a slot out of range, or a handle issued
// by another DB (its tag differs from the stored series' own ref). Callers
// must hold at least the read lock.
func (sh *shard) resolve(r telemetry.SeriesRef) *memSeries {
	slot := uint64(r) & refSlotMask
	if slot < uint64(len(sh.series)) && sh.series[slot].ref == r {
		return sh.series[slot]
	}
	return nil
}

// candidates returns the cheapest superset of series in this shard that can
// match (name, matcher): the name family map, or the shortest matcher
// posting list if one is shorter. Callers must hold at least the read lock
// and must verify each candidate with s.name == name && s.labels.Matches.
// The bool result is false when the index proves no series can match.
func (sh *shard) candidates(name string, matcher telemetry.Labels) (fams map[string]*memSeries, list []*memSeries, ok bool) {
	fams = sh.byName[name]
	if len(fams) == 0 {
		return nil, nil, false
	}
	for k, v := range matcher {
		pl, have := sh.postings[labelPair{k, v}]
		if !have {
			return nil, nil, false // no series anywhere in the shard has k=v
		}
		if list == nil || len(pl) < len(list) {
			list = pl
		}
	}
	if list != nil && len(list) < len(fams) {
		return nil, list, true
	}
	return fams, nil, true
}

// create inserts a new series for p's identity, registering it in the hash
// map, the inverted index, and on matching rollup rules. Callers must hold
// the write lock and must have checked lookup first; rules must be loaded
// while the lock is held, so a series racing AddRollup either attaches the
// new rule at birth or exists by the time the backfill locks this shard —
// never neither.
func (sh *shard) create(p *telemetry.Point, h uint64, ref refBase, rules []RollupRule, onCreate func(name string)) *memSeries {
	fams := sh.byName[p.Name]
	if fams == nil {
		fams = make(map[string]*memSeries)
		sh.byName[p.Name] = fams
	}
	s := &memSeries{name: p.Name, labels: p.Labels.Clone(), key: p.Labels.Key()}
	s.ref = ref.at(shardIndex(h), len(sh.series))
	sh.series = append(sh.series, s)
	fams[s.key] = s
	sh.byHash[h] = append(sh.byHash[h], s)
	for k, v := range s.labels {
		pair := labelPair{k, v}
		sh.postings[pair] = append(sh.postings[pair], s)
	}
	for i := range rules {
		if rules[i].Metric == p.Name {
			s.rollups = append(s.rollups, newSeriesRollup(rules[i]))
		}
	}
	if onCreate != nil {
		onCreate(p.Name)
	}
	return s
}

// hashSeed keys the identity hash for this process. Placement only needs to
// be stable within one DB's lifetime, never across processes.
var hashSeed = maphash.MakeSeed()

// identityOf hashes a point's series identity using the runtime's hardware-
// accelerated string hash. The label part is an order-independent
// (XOR-combined) mix so the map's iteration order never matters and no
// canonical key string has to be allocated; collisions are harmless because
// lookups verify name and labels. scanPointEnc computes the same hash from
// journal record bytes and must change with it (TestApplyWALAllocs fails
// when the two disagree: every replayed point would take the decoding path).
func identityOf(p *telemetry.Point) uint64 {
	h := maphash.String(hashSeed, p.Name)
	var lh uint64
	for k, v := range p.Labels {
		lh ^= pairHash(k, v)
	}
	return mix(h ^ lh)
}

// shardIndex maps an identity hash to its lock stripe.
func shardIndex(h uint64) int { return int(h & (numShards - 1)) }

// pairHash hashes one label pair asymmetrically so swapping key and value
// changes the result.
func pairHash(k, v string) uint64 {
	return mix(maphash.String(hashSeed, k)) ^ maphash.String(hashSeed, v)
}

// mix is a 64-bit finalizer (splitmix64's) spreading entropy into the low
// bits shardIndex masks out.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
