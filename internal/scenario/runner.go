package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/facility"
	"autoloop/internal/fleet"
	"autoloop/internal/hw"
	"autoloop/internal/knowledge"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// caseDefaults carries the built-in cases' scoring attribution: which
// injection domain each case answers for and which finding/action kinds
// count. Maintenance and scheduler are optimizer/stewardship loops with no
// injection domain — they run but are not scored. A scenario's Loop entry
// overrides any of it; new cases register their own defaults through their
// ScenarioTemplate.
var caseDefaults = map[string]Loop{
	"power": {
		Domain:   DomainHardware,
		Findings: []string{"thermal-pressure"},
		Actions:  []string{"lower-setpoint"},
	},
	"ost": {
		Domain:   DomainStorage,
		Findings: []string{"ost-degraded"},
		Actions:  []string{"reopen-avoiding"},
	},
	"ioqos": {
		Domain:   DomainStorage,
		Findings: []string{"latency-violation", "qos-divergence"},
		Actions:  []string{"set-qos", "set-allocation"},
	},
	"misconfig": {
		Domain:   DomainApplication,
		Findings: []string{"misconfig-threads", "misconfig-underutil", "misconfig-wronglib"},
		Actions:  []string{"fix-misconfig"},
	},
	"maintenance": {},
	"scheduler":   {},
}

// TemplateFor returns the scenario template for one of the built-in cases:
// a Loop spec carrying the case name and its default scoring attribution.
// Case packages re-export it as their ScenarioTemplate so new cases land as
// scenario + CaseFactory pairs.
func TemplateFor(caseName string) (Loop, bool) {
	d, ok := caseDefaults[caseName]
	if !ok {
		return Loop{}, false
	}
	d.LoopSpec = control.LoopSpec{Case: caseName}
	return d, true
}

// Stack is one built simulation stack: sim engine, hardware, cooling plant,
// filesystem, scheduler, applications, knowledge, the telemetry registry and
// pipeline into the TSDB, and the control service owning the loop fleet. It
// is the one way every full stack in the repository is put together.
type Stack struct {
	Engine    *sim.Engine
	DB        *tsdb.DB
	Bus       *bus.Bus
	Cluster   *hw.Cluster
	Plant     *facility.Plant // nil without facility.plant
	FS        *pfs.FS
	Scheduler *sched.Scheduler
	Apps      *app.Runtime
	Telemetry *telemetry.Registry
	Pipe      *telemetry.Pipeline
	Ctl       *control.Service
	Knowledge *knowledge.Base
}

// Runtime is one assembled scenario: the built stack with its loop fleet
// spawned through the control registry, plus the armed fault schedule and
// the scorer.
type Runtime struct {
	*Stack

	spec    *Spec
	horizon time.Duration
	sample  time.Duration
	windows []*window
	scorer  *scorer
	injRng  *rand.Rand
	ran     bool
}

// cadences resolves the document's sampling and control-round cadences and
// how many samples make one round.
func (s *Spec) cadences() (sample, round time.Duration, everyN int) {
	sample = s.SampleEvery.D()
	if sample <= 0 {
		sample = 30 * time.Second
	}
	round = s.RoundEvery.D()
	if round <= 0 {
		round = time.Minute
		if round < sample {
			round = sample
		}
	}
	everyN = int(round / sample)
	if everyN < 1 {
		everyN = 1
	}
	return sample, round, everyN
}

// Build constructs the full stack described by the document's seed,
// cadences and facility, storing telemetry into db and resolving loop specs
// through reg. It reads nothing else from spec, spawns no loop and schedules
// no engine event, so a caller can restore state into the stack (or jump
// its clock) before anything runs. Only the facility is validated.
func Build(spec *Spec, reg *control.Registry, db *tsdb.DB) (*Stack, error) {
	if err := spec.Facility.validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("scenario: Build requires a case registry")
	}
	if db == nil {
		return nil, fmt.Errorf("scenario: Build requires a TSDB")
	}
	_, round, _ := spec.cadences()
	f := &spec.Facility

	st := &Stack{Engine: sim.NewEngine(spec.Seed), DB: db, Bus: bus.New()}

	// Hardware plane.
	hcfg := hw.DefaultConfig()
	hcfg.Nodes = f.Nodes
	if f.NodesPerRack > 0 {
		hcfg.NodesPerRack = f.NodesPerRack
	}
	if f.CoresPerNode > 0 {
		hcfg.CoresPerNode = f.CoresPerNode
	}
	if f.MemGBPerNode > 0 {
		hcfg.MemGBPerNode = f.MemGBPerNode
	}
	if f.SensorNoise != nil {
		hcfg.SensorNoise = *f.SensorNoise
	}
	if f.AmbientC != 0 {
		hcfg.AmbientC = f.AmbientC
	}
	st.Cluster = hw.New(st.Engine, hcfg)

	if f.Plant {
		st.Plant = facility.New(st.Engine, facility.DefaultConfig(), st.Cluster)
		st.Plant.BindAmbient(st.Cluster)
	}

	pcfg := pfs.DefaultConfig()
	if f.OSTs > 0 {
		pcfg.OSTs = f.OSTs
	}
	if f.OSTBandwidthMBps > 0 {
		pcfg.OSTBandwidthMBps = f.OSTBandwidthMBps
	}
	if f.StripeCount > 0 {
		pcfg.DefaultStripeCount = f.StripeCount
	}
	st.FS = pfs.New(st.Engine, pcfg)

	policy := sched.ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 6 * time.Hour, BackfillGuard: true}
	st.Scheduler = sched.New(st.Engine, st.Cluster.UpNodes(), policy)
	st.Apps = app.NewRuntime(st.Engine, st.DB, st.FS, st.Cluster)
	st.Apps.OnComplete = func(inst *app.Instance) { st.Scheduler.JobFinished(inst.Job.ID) }
	st.Scheduler.SetHooks(st.Apps.Start, st.Apps.Kill)
	st.Knowledge = knowledge.NewBase()

	// Telemetry plane: every substrate collector into the TSDB.
	st.Telemetry = telemetry.NewRegistry()
	st.Telemetry.Register(st.Cluster.Collector())
	if st.Plant != nil {
		st.Telemetry.Register(st.Plant.Collector())
	}
	st.Telemetry.Register(st.FS.Collector())
	st.Pipe = telemetry.NewPipeline(st.Telemetry, st.DB)

	// Control plane: an empty fleet under the control service, ticked at
	// the round cadence once a caller drives it.
	env := &control.Env{
		Querier:   st.DB,
		Plant:     st.Plant,
		Scheduler: st.Scheduler,
		Apps:      st.Apps,
		Cluster:   st.Cluster,
		FS:        st.FS,
		Knowledge: st.Knowledge,
		Clock:     sim.VirtualClock{Engine: st.Engine},
		Rng:       rand.New(rand.NewSource(spec.Seed + 7)),
		Bus:       st.Bus,
	}
	st.Ctl = control.NewService(reg, env, fleet.New(0), round)
	return st, nil
}

// Assemble builds the full stack from one scenario spec, spawning the fleet
// through reg (the CaseFactory path — the same registry the control plane
// uses). The returned runtime is armed but not yet run.
func Assemble(spec *Spec, reg *control.Registry) (*Runtime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	st, err := Build(spec, reg, tsdb.New(0))
	if err != nil {
		return nil, err
	}
	sample, _, everyN := spec.cadences()
	horizon := spec.Horizon.D()
	rt := &Runtime{
		Stack:   st,
		spec:    spec,
		horizon: horizon,
		sample:  sample,
		injRng:  rand.New(rand.NewSource(spec.Seed ^ 0x5bd1e995)),
	}

	// The scorer subscribes before any loop is spawned, so no event is lost.
	rt.scorer = newScorer(rt.Bus)
	for i := range spec.Loops {
		ls := &spec.Loops[i]
		sp, err := rt.Ctl.Spawn(ls.LoopSpec)
		if err != nil {
			return nil, fmt.Errorf("scenario: loops[%d]: %w", i, err)
		}
		b := resolveBinding(ls)
		for _, bl := range sp.Loops {
			rt.scorer.bind(bl.Loop.Name, b)
		}
	}
	rt.Pipe.Drive(rt.Ctl, everyN)

	// Monitoring cadence.
	rt.Engine.Every(sample, sample, func() bool {
		rt.Pipe.Sample(rt.Engine.Now())
		return rt.Engine.Now() < horizon
	})

	// Maintenance calendar.
	for _, w := range spec.Maintenance {
		if err := rt.Scheduler.AddMaintenance(w.At.D(), w.At.D()+w.Duration.D()); err != nil {
			return nil, fmt.Errorf("scenario: maintenance: %w", err)
		}
	}

	// Background workload.
	for _, j := range generateJobs(spec, horizon) {
		j := j
		rt.Apps.RegisterSpec(j.name, j.spec)
		rt.Engine.At(j.submitAt, func() {
			_, _ = rt.Scheduler.Submit(j.name, j.tenant, j.nodes, j.walltime, 0)
		})
	}

	// Fault schedule.
	for i := range spec.Injections {
		if err := rt.arm(spec.Injections[i]); err != nil {
			return nil, fmt.Errorf("scenario: injections[%d]: %w", i, err)
		}
	}
	return rt, nil
}

// resolveBinding merges a scenario Loop's attribution overrides onto the
// case defaults. Domain "none" opts the loop out of scoring.
func resolveBinding(ls *Loop) *binding {
	def := caseDefaults[ls.Case]
	b := &binding{
		domain:   ls.Domain,
		findings: toSet(ls.Findings),
		actions:  toSet(ls.Actions),
	}
	if b.domain == "" {
		b.domain = def.Domain
	}
	if b.domain == "none" {
		b.domain = ""
	}
	if b.findings == nil {
		b.findings = toSet(def.Findings)
	}
	if b.actions == nil {
		b.actions = toSet(def.Actions)
	}
	return b
}

// Run executes the scenario to its horizon and scores it. It can only be
// called once per assembled runtime.
func (rt *Runtime) Run() (*Report, error) {
	if rt.ran {
		return nil, fmt.Errorf("scenario: runtime already ran")
	}
	rt.ran = true
	rt.Engine.RunUntil(rt.horizon)
	if err := rt.Pipe.Err(); err != nil {
		return nil, fmt.Errorf("scenario: telemetry ingest: %w", err)
	}
	rep := rt.score()
	for _, ls := range rt.spec.Loops {
		name := ls.Name
		if name == "" {
			name = ls.Case
		}
		rep.Loops = append(rep.Loops, name)
	}
	return rep, nil
}

// Run assembles and runs spec in one call — the scenario-file entry point.
func Run(spec *Spec, reg *control.Registry) (*Report, error) {
	rt, err := Assemble(spec, reg)
	if err != nil {
		return nil, err
	}
	return rt.Run()
}
