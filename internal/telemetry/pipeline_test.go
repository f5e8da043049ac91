package telemetry

import (
	"fmt"
	"testing"
	"time"

	"autoloop/internal/bus"
)

// captureSink records batches handed to it and can inject errors.
type captureSink struct {
	batches [][]Point
	fail    error
}

func (s *captureSink) AppendBatch(pts []Point) error {
	cp := make([]Point, len(pts))
	copy(cp, pts)
	s.batches = append(s.batches, cp)
	return s.fail
}

func testRegistry(points int) *Registry {
	reg := NewRegistry()
	reg.Register(CollectorFunc(func(now time.Duration) []Point {
		pts := make([]Point, points)
		for i := range pts {
			pts[i] = Point{Name: fmt.Sprintf("m%d", i), Time: now, Value: float64(i)}
		}
		return pts
	}))
	return reg
}

func TestPipelineSampleFeedsSink(t *testing.T) {
	sink := &captureSink{}
	p := NewPipeline(testRegistry(3), sink)
	if n := p.Sample(time.Second); n != 3 {
		t.Fatalf("Sample = %d points, want 3", n)
	}
	p.Sample(2 * time.Second)
	if len(sink.batches) != 2 || len(sink.batches[0]) != 3 {
		t.Fatalf("sink saw %d batches (%v)", len(sink.batches), sink.batches)
	}
	if sink.batches[1][0].Time != 2*time.Second {
		t.Errorf("second batch time = %v", sink.batches[1][0].Time)
	}
	samples, points, errs := p.Stats()
	if samples != 2 || points != 6 || errs != 0 {
		t.Errorf("Stats = %d, %d, %d; want 2, 6, 0", samples, points, errs)
	}
}

func TestPipelinePublishesBatchedEnvelopes(t *testing.T) {
	b := bus.New()
	var exact, domain int
	var lastPayload interface{}
	b.Subscribe("telemetry.m1", func(e bus.Envelope) { exact++; lastPayload = e.Payload })
	b.Subscribe("telemetry.*", func(bus.Envelope) { domain++ })
	p := NewPipeline(testRegistry(3), nil).PublishTo(b, "test")
	p.Sample(time.Second)
	if exact != 1 || domain != 3 {
		t.Fatalf("exact = %d, domain = %d; want 1, 3", exact, domain)
	}
	pt, ok := lastPayload.(WirePoint)
	if !ok || pt.Name != "m1" || pt.Value != 1 {
		t.Errorf("payload = %#v, want the m1 WirePoint", lastPayload)
	}
	if pub, del := b.Stats(); pub != 3 || del != 4 {
		t.Errorf("bus stats = %d, %d; want 3, 4", pub, del)
	}
}

func TestPipelineSinkErrorCounted(t *testing.T) {
	sink := &captureSink{fail: fmt.Errorf("boom")}
	p := NewPipeline(testRegistry(1), sink)
	p.Sample(time.Second)
	if _, _, errs := p.Stats(); errs != 1 {
		t.Errorf("errs = %d, want 1", errs)
	}
	if p.Err() == nil {
		t.Error("Err() = nil, want the sink error")
	}
}

func TestPipelineEmptyGatherSkipsSinkAndBus(t *testing.T) {
	sink := &captureSink{}
	b := bus.New()
	p := NewPipeline(NewRegistry(), sink).PublishTo(b, "test")
	if n := p.Sample(time.Second); n != 0 {
		t.Fatalf("Sample = %d, want 0", n)
	}
	if len(sink.batches) != 0 {
		t.Errorf("sink saw %d batches, want 0", len(sink.batches))
	}
	if pub, _ := b.Stats(); pub != 0 {
		t.Errorf("published = %d, want 0", pub)
	}
}

// refSink is a captureSink that also ingests by handle: a handle is the
// index+1 of its identity in ids.
type refSink struct {
	captureSink
	ids     []string
	appends [][]float64
}

func (s *refSink) Ref(name string, labels Labels) (SeriesRef, error) {
	s.ids = append(s.ids, name+labels.String())
	return SeriesRef(len(s.ids)), nil
}

func (s *refSink) AppendRefs(t time.Duration, refs []SeriesRef, vals []float64) error {
	row := make([]float64, 0, len(vals))
	for i := range refs {
		row = append(row, vals[i])
	}
	s.appends = append(s.appends, row)
	return s.fail
}

// countingCollector is a RefCollector that records which path ran, in call
// order across collectors.
type countingCollector struct {
	name  string
	calls *[]string
	refs  []SeriesRef
	vals  []float64
}

func (c *countingCollector) Collect(now time.Duration) []Point {
	*c.calls = append(*c.calls, c.name+".points")
	return []Point{{Name: c.name, Time: now, Value: 1}}
}

func (c *countingCollector) CollectRefs(now time.Duration, sink RefSink) ([]SeriesRef, []float64, error) {
	*c.calls = append(*c.calls, c.name+".refs")
	if c.refs == nil {
		r, err := sink.Ref(c.name, nil)
		if err != nil {
			return nil, nil, err
		}
		c.refs, c.vals = []SeriesRef{r}, []float64{1}
	}
	return c.refs, c.vals, nil
}

func TestPipelineRoutesRefCollectors(t *testing.T) {
	var calls []string
	reg := NewRegistry()
	reg.Register(&countingCollector{name: "hw", calls: &calls})
	reg.Register(CollectorFunc(func(now time.Duration) []Point {
		calls = append(calls, "plain.points")
		return []Point{{Name: "plain", Time: now, Value: 2}}
	}))
	reg.Register(&countingCollector{name: "hw2", calls: &calls})

	sink := &refSink{}
	p := NewPipeline(reg, sink)
	if n := p.Sample(time.Second); n != 3 {
		t.Fatalf("Sample = %d points, want 3", n)
	}
	p.Sample(2 * time.Second)
	want := "hw.refs plain.points hw2.refs hw.refs plain.points hw2.refs"
	if got := fmt.Sprint(calls); got != "["+want+"]" {
		t.Errorf("collector calls = %v, want registration order [%s]", got, want)
	}
	if len(sink.ids) != 2 || len(sink.appends) != 4 || len(sink.batches) != 2 || len(sink.batches[0]) != 1 {
		t.Errorf("sink saw %d refs, %d ref appends, %d batches; want 2, 4, 2 of 1 point", len(sink.ids), len(sink.appends), len(sink.batches))
	}
	if samples, points, errs := p.Stats(); samples != 2 || points != 6 || errs != 0 {
		t.Errorf("Stats = %d, %d, %d; want 2, 6, 0", samples, points, errs)
	}

	// One failing sample counts once, however many appends failed.
	sink.fail = fmt.Errorf("boom")
	p.Sample(3 * time.Second)
	if _, _, errs := p.Stats(); errs != 1 || p.Err() == nil {
		t.Errorf("errs = %d, Err = %v; want 1 and the sink error", errs, p.Err())
	}

	// With a bus attached every collector takes the point path, so the
	// envelopes carry whole points.
	calls = calls[:0]
	b := bus.New()
	var topics []string
	b.Subscribe("telemetry.*", func(e bus.Envelope) { topics = append(topics, e.Topic) })
	NewPipeline(reg, &refSink{}).PublishTo(b, "test").Sample(time.Second)
	if got := fmt.Sprint(calls); got != "[hw.points plain.points hw2.points]" {
		t.Errorf("with a bus, collector calls = %v, want the point path", got)
	}
	if got := fmt.Sprint(topics); got != "[telemetry.hw telemetry.plain telemetry.hw2]" {
		t.Errorf("published topics = %v", got)
	}
}
