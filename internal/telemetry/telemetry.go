// Package telemetry defines the metric data model shared by every monitored
// substrate and every MAPE-K loop: labeled points, series, collectors, and
// registries.
//
// The model follows the conventions of production HPC monitoring stacks
// (LDMS, DCDB, Prometheus): a metric has a name, a set of string labels
// identifying the emitting entity (node, job, OST, tenant, ...), and
// float64 samples at virtual timestamps. Keeping the model this small is
// what makes loop components interchangeable (paper question (ii)): any
// Monitor implementation produces Points, any Analyze implementation
// consumes series of them.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Labels identifies the entity a metric describes, e.g.
// {"node": "n012", "job": "1234"}.
type Labels map[string]string

// Clone returns an independent copy of l.
func (l Labels) Clone() Labels {
	if l == nil {
		return nil
	}
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// Key returns a canonical string form of l ("a=1,b=2" with sorted keys),
// usable as a map key. The empty label set yields "".
func (l Labels) Key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// Matches reports whether every label in matcher is present in l with an
// equal value. A nil or empty matcher matches everything.
func (l Labels) Matches(matcher Labels) bool {
	for k, v := range matcher {
		if l[k] != v {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (l Labels) String() string { return "{" + l.Key() + "}" }

// Point is a single observation of a metric.
type Point struct {
	Name   string
	Labels Labels
	Time   time.Duration // virtual time since the simulation epoch
	Value  float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("%s%s=%g@%v", p.Name, p.Labels, p.Value, p.Time)
}

// Sample is one (time, value) pair within a series.
type Sample struct {
	Time  time.Duration
	Value float64
}

// Series is an ordered sequence of samples for one (name, labels) identity.
type Series struct {
	Name    string
	Labels  Labels
	Samples []Sample
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns the sample values as a slice, for feeding analytics.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		vs[i] = smp.Value
	}
	return vs
}

// Last returns the most recent sample and whether one exists.
func (s *Series) Last() (Sample, bool) {
	if len(s.Samples) == 0 {
		return Sample{}, false
	}
	return s.Samples[len(s.Samples)-1], true
}

// Collector is implemented by every monitored substrate component. Collect
// reports the component's current sensor readings at virtual time now. A
// collector may hand out the same Labels map in every sweep, so the Labels
// of collected points are immutable: consumers must copy before modifying.
type Collector interface {
	Collect(now time.Duration) []Point
}

// CollectorFunc adapts a plain function to the Collector interface.
type CollectorFunc func(now time.Duration) []Point

// Collect implements Collector.
func (f CollectorFunc) Collect(now time.Duration) []Point { return f(now) }

// Registry aggregates collectors, forming the "Sensors" plane of the paper's
// Fig. 1: facility, hardware, system software, and application collectors all
// register here, and the monitoring pipeline gathers them at one sampling
// cadence.
type Registry struct {
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewRegistryOf returns a registry pre-populated with cs, in order.
func NewRegistryOf(cs ...Collector) *Registry {
	r := NewRegistry()
	for _, c := range cs {
		r.Register(c)
	}
	return r
}

// Register adds c to the registry.
func (r *Registry) Register(c Collector) {
	if c == nil {
		panic("telemetry: Register called with nil collector")
	}
	r.collectors = append(r.collectors, c)
}

// Size reports the number of registered collectors.
func (r *Registry) Size() int { return len(r.collectors) }

// Gather collects from every registered collector in registration order.
func (r *Registry) Gather(now time.Duration) []Point {
	return r.GatherInto(now, nil)
}

// GatherInto is Gather appending into buf, so steady-state sampling loops
// can reuse one buffer across rounds instead of reallocating per sample.
func (r *Registry) GatherInto(now time.Duration, buf []Point) []Point {
	for _, c := range r.collectors {
		buf = append(buf, c.Collect(now)...)
	}
	return buf
}
