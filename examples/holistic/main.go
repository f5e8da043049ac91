// Holistic: the paper's Fig. 1 end to end.
//
// Sensors from all four domains — building infrastructure (cooling plant),
// system hardware (nodes), system software (parallel filesystem, scheduler),
// and applications — feed one monitoring plane; operational data analytics
// watch the combined stream and diagnose an injected fault in each domain.
//
// Run: go run ./examples/holistic
package main

import (
	"fmt"
	"sort"
	"time"

	"autoloop/internal/analytics"
	"autoloop/internal/app"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/scenario"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
	"autoloop/internal/viz"
)

func main() {
	// --- the managed system, one component per Fig. 1 box: system hardware
	// (16 nodes), building infrastructure (the cooling plant, its supply
	// setpoint feeding the nodes' inlet air), system software (parallel
	// filesystem, scheduler), and applications ---
	st, err := scenario.Build(&scenario.Spec{Seed: 7, Facility: scenario.Facility{
		Nodes: 16, Plant: true, OSTs: 8, OSTBandwidthMBps: 300, StripeCount: 4,
	}}, cases.NewRegistry(), tsdb.New(0))
	if err != nil {
		panic(err)
	}
	engine, db, plant, cl, fs, scheduler, runtime := st.Engine, st.DB, st.Plant, st.Cluster, st.FS, st.Scheduler, st.Apps

	// --- holistic monitoring: every domain registers its sensors; Build
	// registers hardware, facility and filesystem, the scheduler joins here ---
	st.Telemetry.Register(scheduler.Collector())
	pipe := st.Pipe

	// --- autonomous response: a spec-driven fleet under one coordinator ---
	// The loops are declared as JSON specs and spawned through the control
	// registry into the stack's deployment environment; the monitoring
	// pipeline drives the control service (a round every 2nd sample = every
	// minute): the power loop manages cooling energy under the thermal
	// limit, the OST loop steers applications off degraded storage, and
	// the coordinator's arbiter would resolve any same-subject conflict
	// between them by priority.
	coord := st.Ctl.Coordinator().PublishTo(st.Bus, "holistic")
	ctl := st.Ctl.Attach(st.Bus, "holistic")
	specs, err := control.ParseSpecs([]byte(`[
		{"case": "power", "period": "1m"},
		{"case": "ost", "period": "1m"}
	]`))
	if err != nil {
		panic(err)
	}
	for _, spec := range specs {
		if _, err := ctl.Spawn(spec); err != nil {
			panic(err)
		}
	}
	pipe.Drive(ctl, 2)

	engine.Every(30*time.Second, 30*time.Second, func() bool {
		pipe.Sample(engine.Now())
		return engine.Now() < 4*time.Hour
	})

	// --- workload ---
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("steady%d", i)
		runtime.RegisterSpec(name, app.Spec{
			Name: name, TotalIters: 300, IterTime: sim.LogNormal{MeanV: time.Minute, CV: 0.1},
			IOEvery: 5, IOSizeMB: 200, StripeCount: 4,
		})
		if _, err := scheduler.Submit(name, "ops", 2, 8*time.Hour, 0); err != nil {
			panic(err)
		}
	}

	// --- injected faults, one per domain ---
	engine.At(30*time.Minute, func() { plant.SetSupplySetpointC(14) })   // facility: cooling waste
	engine.At(1*time.Hour, func() { _ = cl.SetThermalFault("n000", 6) }) // hardware: fan failure
	engine.At(90*time.Minute, func() { _ = fs.SetOSTHealth(3, 0.1) })    // storage: slow OST
	runtime.RegisterSpec("storm", app.Spec{                              // application: thread oversubscription
		Name: "storm", TotalIters: 200, IterTime: sim.Constant{V: time.Minute},
		Misconfig: app.MisconfigThreads,
	})
	engine.At(2*time.Hour, func() {
		if _, err := scheduler.Submit("storm", "bob", 1, 6*time.Hour, 0); err != nil {
			panic(err)
		}
	})

	// --- operational data analytics over the combined stream ---
	pueDetector := analytics.NewCUSUM(10, 0.005, 0.05)
	found := map[string]time.Duration{}
	// The ODA poll reads through the zero-copy LatestInto surface into
	// buffers reused across ticks — steady-state polling allocates nothing.
	var ptsBuf []telemetry.Point
	var vals []float64
	engine.Every(time.Minute, time.Minute, func() bool {
		now := engine.Now()
		if ptsBuf = db.LatestInto(ptsBuf[:0], "node.temp.celsius", nil); len(ptsBuf) > 4 {
			vals = vals[:0]
			for _, p := range ptsBuf {
				vals = append(vals, p.Value)
			}
			if len(analytics.MADOutliers(vals, 6, 1)) > 0 {
				mark(found, "hardware: node temperature outlier", now)
			}
		}
		if ptsBuf = db.LatestInto(ptsBuf[:0], "pfs.ost.lat_ms", nil); len(ptsBuf) >= 4 {
			vals = vals[:0]
			for _, p := range ptsBuf {
				if p.Value > 0.1 {
					vals = append(vals, p.Value)
				}
			}
			if len(vals) >= 4 && len(analytics.MADOutliers(vals, 5, 1)) > 0 {
				mark(found, "storage: OST latency outlier", now)
			}
		}
		ptsBuf = db.LatestInto(ptsBuf[:0], "app.ctx_switch_rate", nil)
		for _, p := range ptsBuf {
			if p.Value > 20000 {
				mark(found, "application: context-switch storm", now)
			}
		}
		if pue, ok := db.LatestValue("facility.pue", telemetry.Labels{"plant": "p0"}); ok && pueDetector.Step(pue) {
			mark(found, "facility: PUE drift", now)
		}
		return now < 4*time.Hour
	})

	engine.RunUntil(4 * time.Hour)

	fmt.Println("holistic MODA run complete")
	fmt.Printf("  %d series, %d samples across 4 domains\n", db.NumSeries(), db.Appended())
	fmt.Println("  diagnoses:")
	diagnoses := make([]string, 0, len(found))
	for what := range found {
		diagnoses = append(diagnoses, what)
	}
	// By detection time, then by name: map order would shuffle the report.
	sort.Slice(diagnoses, func(i, j int) bool {
		a, b := diagnoses[i], diagnoses[j]
		return found[a] < found[b] || (found[a] == found[b] && a < b)
	})
	for _, what := range diagnoses {
		fmt.Printf("   %-42s at %v\n", what, found[what])
	}
	cm := coord.Metrics()
	fmt.Printf("  fleet: %d rounds, %d actions planned, %d conflicts arbitrated\n",
		cm.Rounds, cm.Planned, cm.Arbitrated)
	// The control plane reports the same fleet as LoopStatus rows — the
	// in-process form of a control.v1 list request.
	if r := ctl.Handle(control.Request{Op: control.OpList}); r.OK {
		for _, st := range r.Loops {
			fmt.Printf("   %-11s %-10s %-10s executed=%d honored=%d\n",
				st.Case, st.Name, st.State, st.Metrics.Executed, st.Metrics.Honored)
		}
	}

	// The Fig. 1 "Visualize" box: sparkline each domain's headline signal.
	fmt.Println("\n  visualize (4h of operation, one anomaly per domain):")
	show := func(name string, matcher telemetry.Labels) {
		if s, ok := db.QueryOne(name, matcher, 0, engine.Now()); ok {
			fmt.Println("   " + viz.SparkSeries(s, 48))
		}
	}
	show("facility.pue", telemetry.Labels{"plant": "p0"})
	show("node.temp.celsius", telemetry.Labels{"node": "n000"})
	show("pfs.ost.lat_ms", telemetry.Labels{"ost": "ost03"})
	show("app.ctx_switch_rate", telemetry.Labels{"app": "storm"})
}

func mark(found map[string]time.Duration, what string, now time.Duration) {
	if _, ok := found[what]; !ok {
		found[what] = now
	}
}
