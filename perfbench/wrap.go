package main

import (
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/telemetry"
)

// Span names of the tsdb read surface, shared by the loop querier and the
// gateway store wrappers.
const (
	spanLatestInto  = "tsdb.latest_into"
	spanWindowInto  = "tsdb.window_into"
	spanLatestValue = "tsdb.latest_value"
	spanQueryVisit  = "tsdb.query_visit"
	spanQueryRollup = "tsdb.query_rollup"
	spanQuery       = "tsdb.query" // Query, QueryOne and Latest
	spanRound       = "fleet.round"
)

// phaseNames are the MAPE phases timed per case.
var phaseNames = [4]string{"observe", "analyze", "plan", "execute"}

// scenarioProbe traces one scenario run from outside the program, through
// public seams only: a control.Registry whose factories hand each loop a
// timing telemetry.Querier and wrap the loop's MAPE phases, plus a marker
// ticker the pipeline drives after the fleet. Untraced runs use the stock
// registry and no probe.
type scenarioProbe struct {
	tr *tracer

	mu    sync.Mutex
	round int32 // open fleet.round span, noSpan if none

	loops []*core.Loop
}

func newScenarioProbe(tr *tracer) *scenarioProbe {
	return &scenarioProbe{tr: tr, round: noSpan}
}

// Tick is the marker: the pipeline drives it after every sample, after the
// fleet has ticked, so it closes the open round, if any.
func (p *scenarioProbe) Tick(time.Duration) {
	p.mu.Lock()
	round := p.round
	p.round = noSpan
	p.mu.Unlock()
	p.tr.end(round, 0)
}

// openRound returns the current fleet.round span, opening one at the
// round's first phase.
func (p *scenarioProbe) openRound() int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.round == noSpan {
		p.round = p.tr.begin(spanRound, noSpan)
	}
	return p.round
}

// registry returns the stock case registry with every factory's Build
// wrapped by the probe. Loops are otherwise built exactly as cases.NewRegistry
// builds them.
func (p *scenarioProbe) registry() *control.Registry {
	reg := control.NewRegistry()
	for _, f := range cases.Factories() {
		build := f.Build
		c := &caseProbe{p: p}
		for i, ph := range phaseNames {
			c.phase[i] = "core." + f.Name + "." + ph
		}
		c.cur.Store(noSpan)
		f.Build = func(env *control.Env, cfg interface{}) ([]control.BuiltLoop, error) {
			e := *env
			if env.Querier != nil {
				e.Querier = &timedQuerier{in: env.Querier, h: c}
			}
			built, err := build(&e, cfg)
			if err != nil {
				return nil, err
			}
			for _, b := range built {
				p.loops = append(p.loops, b.Loop)
				b.Loop.M = monitor{b.Loop.M, c}
				b.Loop.A = analyzer{b.Loop.A, c}
				b.Loop.P = planner{b.Loop.P, c}
				b.Loop.E = executor{b.Loop.E, c}
			}
			return built, nil
		}
		reg.MustRegister(f)
	}
	return reg
}

// caseProbe is the instrumentation shared by the loops one case factory
// builds. cur is the case's open phase span, the parent of the reads made
// inside it. A hierarchical case (ioqos) plans its parent and child loops
// concurrently through one querier, so a read may be parented to a sibling
// loop's phase of the same case; the case's totals are unaffected.
type caseProbe struct {
	p     *scenarioProbe
	phase [4]string
	cur   atomic.Int32
}

func (c *caseProbe) begin(ph int) int32 {
	id := c.p.tr.begin(c.phase[ph], c.p.openRound())
	c.cur.Store(id)
	return id
}

func (c *caseProbe) end(id int32) {
	c.cur.CompareAndSwap(id, noSpan)
	c.p.tr.end(id, 0)
}

type monitor struct {
	in core.Monitor
	c  *caseProbe
}

func (m monitor) Observe(now time.Duration) (core.Observation, error) {
	id := m.c.begin(0)
	defer m.c.end(id)
	return m.in.Observe(now)
}

type analyzer struct {
	in core.Analyzer
	c  *caseProbe
}

func (a analyzer) Analyze(now time.Duration, obs core.Observation) (core.Symptoms, error) {
	id := a.c.begin(1)
	defer a.c.end(id)
	return a.in.Analyze(now, obs)
}

type planner struct {
	in core.Planner
	c  *caseProbe
}

func (p planner) Plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
	id := p.c.begin(2)
	defer p.c.end(id)
	return p.in.Plan(now, sym)
}

type executor struct {
	in core.Executor
	c  *caseProbe
}

func (e executor) Execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	id := e.c.begin(3)
	defer e.c.end(id)
	return e.in.Execute(now, a)
}

// readHook opens and closes the span of one timed call into the store.
type readHook interface {
	beginRead(name string) int32
	endRead(id int32, items int)
}

// beginRead opens a loop's read under the case's open phase.
func (c *caseProbe) beginRead(name string) int32 {
	return c.p.tr.begin(name, c.cur.Load())
}

func (c *caseProbe) endRead(id int32, items int) { c.p.tr.end(id, int64(items)) }

// timedQuerier is the real store with every call timed through h.
type timedQuerier struct {
	in telemetry.Querier
	h  readHook
}

func (q *timedQuerier) Query(name string, m telemetry.Labels, from, to time.Duration) []telemetry.Series {
	r := q.h.beginRead(spanQuery)
	out := q.in.Query(name, m, from, to)
	q.h.endRead(r, len(out))
	return out
}

func (q *timedQuerier) QueryOne(name string, m telemetry.Labels, from, to time.Duration) (telemetry.Series, bool) {
	r := q.h.beginRead(spanQuery)
	s, ok := q.in.QueryOne(name, m, from, to)
	q.h.endRead(r, 1)
	return s, ok
}

func (q *timedQuerier) Latest(name string, m telemetry.Labels) []telemetry.Point {
	r := q.h.beginRead(spanQuery)
	out := q.in.Latest(name, m)
	q.h.endRead(r, len(out))
	return out
}

func (q *timedQuerier) LatestValue(name string, m telemetry.Labels) (float64, bool) {
	r := q.h.beginRead(spanLatestValue)
	v, ok := q.in.LatestValue(name, m)
	q.h.endRead(r, 1)
	return v, ok
}

func (q *timedQuerier) QueryVisit(name string, m telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	r := q.h.beginRead(spanQueryVisit)
	n := 0
	q.in.QueryVisit(name, m, from, to, func(l telemetry.Labels, s []telemetry.Sample) {
		n++
		visit(l, s)
	})
	q.h.endRead(r, n)
}

func (q *timedQuerier) WindowInto(buf []float64, name string, m telemetry.Labels, from, to time.Duration) []float64 {
	r := q.h.beginRead(spanWindowInto)
	n0 := len(buf)
	buf = q.in.WindowInto(buf, name, m, from, to)
	q.h.endRead(r, len(buf)-n0)
	return buf
}

func (q *timedQuerier) LatestInto(buf []telemetry.Point, name string, m telemetry.Labels) []telemetry.Point {
	r := q.h.beginRead(spanLatestInto)
	n0 := len(buf)
	buf = q.in.LatestInto(buf, name, m)
	q.h.endRead(r, len(buf)-n0)
	return buf
}
