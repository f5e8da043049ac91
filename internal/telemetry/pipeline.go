package telemetry

import (
	"time"

	"autoloop/internal/bus"
)

// TopicPrefix is the envelope topic namespace for telemetry points: a point
// named "node.temp.celsius" travels on "telemetry.node.temp.celsius", so
// subscribers pick metrics with exact topics and domains with "telemetry.*".
const TopicPrefix = "telemetry."

// Sink ingests gathered point batches in one pass; *tsdb.DB implements it.
// The batch slice is only valid for the duration of the call.
type Sink interface {
	AppendBatch(pts []Point) error
}

// SeriesRef is a sink-issued handle to one stored series: resolve a
// (name, labels) identity once with RefSink.Ref, then append by handle
// without hashing or comparing labels again. A handle is only meaningful to
// the sink that issued it and stays valid for that sink's lifetime; the zero
// SeriesRef is never issued.
type SeriesRef uint64

// RefSink is a Sink that also ingests by series handle (*tsdb.DB
// implements it).
type RefSink interface {
	Sink
	// Ref gets or creates the series (name, labels) and returns its handle.
	Ref(name string, labels Labels) (SeriesRef, error)
	// AppendRefs appends vals[i] to series refs[i], all at time t. The
	// slices are only valid for the duration of the call.
	AppendRefs(t time.Duration, refs []SeriesRef, vals []float64) error
}

// RefCollector is a Collector that can also sample straight into a RefSink
// by handle, skipping the per-sweep Point and Labels construction. A
// CollectRefs sweep must read the same substrate state and draw the same
// randomness as Collect; the two paths differ only in their output.
type RefCollector interface {
	Collector
	// CollectRefs sweeps at virtual time now and returns one handle and
	// value per reading, resolving handles against sink as needed. The
	// returned slices are owned by the collector and valid until its next
	// sweep.
	CollectRefs(now time.Duration, sink RefSink) ([]SeriesRef, []float64, error)
}

// WirePoint is the envelope payload for telemetry points: stable lowercase
// JSON keys for wire clients (matching Envelope's own topic/time/source
// fields), and a typed value for in-process subscribers. The sample time is
// carried by the envelope's Time field, not duplicated here.
type WirePoint struct {
	Name   string  `json:"name"`
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Pipeline is the batched monitoring plane of the paper's Fig. 1: one
// sampling cadence gathers every registered collector, hands the round to
// the storage sink in one pass per path (by handle for RefCollectors, one
// point batch for the rest; see Sample), and (optionally) publishes the batch
// on the bus — one PublishBatch per sample instead of one envelope per
// point, which removes the per-point lock and dispatch overhead from every
// experiment's inner loop. Gather and envelope buffers are reused across
// samples, so steady-state sampling does not allocate.
//
// Pipeline is not safe for concurrent Sample calls; under the simulator all
// sampling is single-threaded on the event engine.
type Pipeline struct {
	reg     *Registry
	sink    Sink
	refSink RefSink // sink, when it ingests by handle; nil otherwise
	bus     *bus.Bus
	source  string
	drives  []driven

	pts     []Point
	envs    []bus.Envelope
	pending []refBatch

	samples uint64
	points  uint64
	errs    uint64
	lastErr error
}

// Ticker is anything advanced on the monitoring cadence — a core.Loop or a
// fleet.Coordinator.
type Ticker interface {
	Tick(now time.Duration)
}

// refBatch is one RefCollector's sweep awaiting ingest.
type refBatch struct {
	refs []SeriesRef
	vals []float64
}

// driven is one Ticker with its sampling divisor and phase counter.
type driven struct {
	t     Ticker
	every int
	n     int
}

// NewPipeline builds a pipeline draining reg into sink. sink may be nil when
// the points are only fanned out on a bus (attach one with PublishTo).
func NewPipeline(reg *Registry, sink Sink) *Pipeline {
	if reg == nil {
		panic("telemetry: NewPipeline requires a registry")
	}
	p := &Pipeline{reg: reg, sink: sink}
	p.refSink, _ = sink.(RefSink)
	return p
}

// PublishTo additionally fans every sampled batch out on b, one envelope per
// point on TopicPrefix+name, published as a single batch. source tags the
// envelopes' Source field. Returns p for chaining.
func (p *Pipeline) PublishTo(b *bus.Bus, source string) *Pipeline {
	p.bus = b
	p.source = source
	return p
}

// Drive arranges for t.Tick(now) to run after every n-th sample (n <= 1
// ticks on every sample), so the response side of the loop always runs
// against freshly ingested telemetry — the monitoring plane of Fig. 1
// driving the feedback plane, instead of two cadences racing on the event
// schedule. Returns p for chaining.
func (p *Pipeline) Drive(t Ticker, every int) *Pipeline {
	if t == nil {
		panic("telemetry: Drive with nil ticker")
	}
	if every < 1 {
		every = 1
	}
	p.drives = append(p.drives, driven{t: t, every: every})
	return p
}

// Sample gathers one round at virtual time now, ingests it, and fans it out.
// It returns the number of points gathered.
//
// Collectors run in registration order, as Registry.Gather runs them. When
// the sink ingests by handle and no bus is attached, a RefCollector sweeps
// straight into handles instead of Points; every other collector (and every
// collector while a bus needs whole Points) goes down the point path. All
// sweeps finish before anything is ingested, so every collector sees the
// same store either way.
func (p *Pipeline) Sample(now time.Duration) int {
	p.pts = p.pts[:0]
	p.pending = p.pending[:0]
	var first error
	n := 0
	for _, c := range p.reg.collectors {
		if rc, ok := c.(RefCollector); ok && p.refSink != nil && p.bus == nil {
			refs, vals, err := rc.CollectRefs(now, p.refSink)
			if err != nil && first == nil {
				first = err
			}
			p.pending = append(p.pending, refBatch{refs, vals})
			n += len(refs)
			continue
		}
		p.pts = append(p.pts, c.Collect(now)...)
	}
	n += len(p.pts)
	p.samples++
	p.points += uint64(n)
	for _, rb := range p.pending {
		if len(rb.refs) == 0 {
			continue
		}
		if err := p.refSink.AppendRefs(now, rb.refs, rb.vals); err != nil && first == nil {
			first = err
		}
	}
	if p.sink != nil && len(p.pts) > 0 {
		if err := p.sink.AppendBatch(p.pts); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		p.errs++
		p.lastErr = first
	}
	if p.bus != nil && len(p.pts) > 0 {
		p.envs = p.envs[:0]
		for _, pt := range p.pts {
			p.envs = append(p.envs, bus.Envelope{
				Topic: TopicPrefix + pt.Name, Time: now, Source: p.source,
				Payload: WirePoint{Name: pt.Name, Labels: pt.Labels, Value: pt.Value},
			})
		}
		p.bus.PublishBatch(p.envs)
	}
	for i := range p.drives {
		d := &p.drives[i]
		if d.n++; d.n >= d.every {
			d.n = 0
			d.t.Tick(now)
		}
	}
	return n
}

// Querier exposes the pipeline's sink as a query surface when it has one
// (the sink is a Store, e.g. *tsdb.DB), so loop constructors can take their
// Knowledge raw-data plane from the same pipeline that feeds it. ok is false
// for write-only sinks.
func (p *Pipeline) Querier() (Querier, bool) {
	q, ok := p.sink.(Querier)
	return q, ok
}

// Stats reports sampling rounds, total points gathered (by either path), and
// samples whose ingest failed.
func (p *Pipeline) Stats() (samples, points, errs uint64) {
	return p.samples, p.points, p.errs
}

// Err returns the first ingest error of the most recent failed sample, or
// nil.
func (p *Pipeline) Err() error { return p.lastErr }
