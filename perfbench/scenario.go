package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"autoloop/internal/cases"
	"autoloop/internal/scenario"
	"autoloop/internal/tsdb"
)

// recordedDigests are the sha256 digests of Report.Table() for the presets'
// default seeds (the ones the repository's own tests and benchmarks run).
// Any change to them means the program's scored behaviour changed.
var recordedDigests = map[string]string{
	"stress-10k/1": "214e3a89f766b70aa8a2de73b4cbec8f0bb4aac2f3a1a0e7cddeb9960d2e3997",
	"midsize/7":    "c784c4c6b792563870eb82def4b08fa009d861c72f77098571fa56f936465bd2",
}

// midsizeSeeds is how many consecutive midsize seeds make one unit of the
// scenario-midsize workload.
const midsizeSeeds = 12

// scenarioWorkload is a batch of scenario documents run through
// scenario.Assemble + Runtime.Run. One unit is the batch; the workload
// repeats whole units until its time is up.
type scenarioWorkload struct {
	specs func(seed int64) []*scenario.Spec
}

var scenarioWorkloads = map[string]scenarioWorkload{
	"scenario-stress10k": {specs: func(seed int64) []*scenario.Spec {
		return []*scenario.Spec{scenario.Stress10k(seed)}
	}},
	"scenario-midsize": {specs: func(seed int64) []*scenario.Spec {
		out := make([]*scenario.Spec, midsizeSeeds)
		for i := range out {
			out[i] = scenario.Midsize(seed + int64(i))
		}
		return out
	}},
}

// setupReps is how many times a run measures the set-up of one unit;
// setup_s is the median.
const setupReps = 25

// scenarioRun is one assembled-and-run scenario.
type scenarioRun struct {
	rt       *scenario.Runtime
	probe    *scenarioProbe // nil when untraced
	run      time.Duration  // wall time of Run
	runCPU   time.Duration  // process CPU time of Run
	alloc    uint64         // bytes allocated by Assemble and Run
	digest   string
	checkErr error
}

// runScenario assembles spec, runs it and checks the report. Untraced, it
// goes through the stock case registry, exactly as the program does; traced,
// through a probe whose spans tr records.
func runScenario(spec *scenario.Spec, tr *tracer) (*scenarioRun, error) {
	reg := cases.NewRegistry()
	var p *scenarioProbe
	if tr != nil {
		p = newScenarioProbe(tr)
		reg = p.registry()
	}
	runtime.GC() // start from a clean heap, so earlier runs' garbage is not charged here
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rt, err := scenario.Assemble(spec, reg)
	if err != nil {
		return nil, err
	}
	if p != nil {
		rt.Pipe.Drive(p, 1)
	}
	c0, t0 := cpuTime(), time.Now()
	rep, err := rt.Run()
	run, runCPU := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	r := &scenarioRun{
		rt: rt, probe: p,
		run: run, runCPU: runCPU,
		alloc:  ms1.TotalAlloc - ms0.TotalAlloc,
		digest: tableDigest(rep),
	}
	r.checkErr = checkReport(spec, rt, rep, r.digest)
	return r, nil
}

// setupCPU measures the set-up of one unit setupReps times: the process CPU
// time of Assemble, summed over the unit's documents, each after a forced GC
// so that no earlier stack's garbage is collected inside the timing.
func setupCPU(specs []*scenario.Spec) ([]float64, error) {
	out := make([]float64, 0, setupReps)
	for range setupReps {
		var total time.Duration
		for _, spec := range specs {
			reg := cases.NewRegistry()
			runtime.GC()
			c0 := cpuTime()
			_, err := scenario.Assemble(spec, reg)
			total += cpuTime() - c0
			if err != nil {
				return nil, err
			}
		}
		out = append(out, total.Seconds())
	}
	return out, nil
}

func tableDigest(rep *scenario.Report) string {
	sum := sha256.Sum256([]byte(rep.Table()))
	return hex.EncodeToString(sum[:])
}

// checkReport checks a scored report: against the recorded digest for a
// default seed, and against what the document implies for any seed — every
// sampling round taken, every node's five hardware points and every OST's
// four storage points in each round, no ingest error, and one outcome per
// injection.
func checkReport(spec *scenario.Spec, rt *scenario.Runtime, rep *scenario.Report, digest string) error {
	key := fmt.Sprintf("%s/%d", spec.Name, spec.Seed)
	fmt.Printf("# %s score table sha256 %s\n", key, digest)
	if want, ok := recordedDigests[key]; ok && digest != want {
		return fmt.Errorf("%s: score table digest %s, recorded %s", key, digest, want)
	}
	sample := spec.SampleEvery.D()
	if sample <= 0 {
		sample = 30 * time.Second
	}
	samples := uint64(spec.Horizon.D() / sample)
	if rep.Samples != samples {
		return fmt.Errorf("%s: %d sampling rounds, the document implies %d", key, rep.Samples, samples)
	}
	osts := spec.Facility.OSTs
	floor := samples * uint64(5*spec.Facility.Nodes+4*osts)
	// Above the floor: the plant's few points and per-tenant storage
	// points, a handful per round.
	if rep.Points < floor || rep.Points > floor+samples*64 {
		return fmt.Errorf("%s: %d points, the document implies %d plus at most %d", key, rep.Points, floor, samples*64)
	}
	if _, _, errs := rt.Pipe.Stats(); errs != 0 {
		return fmt.Errorf("%s: %d ingest errors", key, errs)
	}
	if len(rep.Injections) != len(spec.Injections) {
		return fmt.Errorf("%s: %d injection outcomes for %d injections", key, len(rep.Injections), len(spec.Injections))
	}
	return nil
}

// runScenarioWorkload measures a scenario workload for the given time,
// untraced, and reports its end-to-end metrics.
func runScenarioWorkload(w scenarioWorkload, seed int64, seconds float64, res *result) {
	specs := w.specs(seed)
	setups, err := setupCPU(specs)
	if err != nil {
		res.fail("assemble: %v", err)
		return
	}
	var allocs, heaps []float64
	cpu := make([][]float64, len(specs)) // per document, one per unit
	wall := make([][]float64, len(specs))
	var last *scenarioRun
	begin := time.Now()
	for len(allocs) == 0 || time.Since(begin).Seconds() < seconds {
		var alloc uint64
		for i, spec := range specs {
			last = nil // let the previous runtime go before the next is built
			res.Attempted++
			r, err := runScenario(spec, nil)
			if err != nil {
				res.fail("%s seed %d: %v", spec.Name, spec.Seed, err)
				return
			}
			if r.checkErr != nil {
				res.fail("%v", r.checkErr)
			}
			cpu[i] = append(cpu[i], r.runCPU.Seconds())
			wall[i] = append(wall[i], r.run.Seconds())
			alloc += r.alloc
			heaps = append(heaps, liveHeapMB(r))
			last = r
		}
		allocs = append(allocs, float64(alloc)/(1<<20))
	}

	res.metric("setup_s", median(setups), "s")
	res.metric("run_cpu_s", sumOfMedians(cpu), "s")
	res.metric("alloc_mb", median(allocs), "MB")
	res.metric("heap_live_mb", median(heaps), "MB")
	fmt.Printf("# run wall time %.4f s over %d units\n", sumOfMedians(wall), len(allocs))

	// Recovery: checkpoint the last run's store and rebuild it in a fresh
	// database, the snapshot half of modad's restart path.
	appended, series := last.rt.DB.Appended(), last.rt.DB.NumSeries()
	snap, err := last.rt.DB.Snapshot()
	last = nil
	if err != nil {
		res.fail("snapshot: %v", err)
		return
	}
	var recovers []float64
	for moreRecoveries(recovers) {
		res.Attempted++
		runtime.GC()
		c0 := cpuTime()
		db := tsdb.New(0)
		err = db.RestoreSnapshot(snap)
		recovers = append(recovers, (cpuTime() - c0).Seconds())
		if err != nil {
			res.fail("restore: %v", err)
			break
		}
		if db.Appended() != appended || db.NumSeries() != series {
			res.fail("restore: %d appended / %d series, live store had %d / %d",
				db.Appended(), db.NumSeries(), appended, series)
		}
	}
	fmt.Printf("# recoveries (CPU s): %.4g\n", recovers)
	res.metric("recover_cpu_s", median(recovers), "s")
}

// sumOfMedians is a unit's figure from per-document samples: the sum over
// its documents of each one's median, so a burst of noise that slows one
// pass does not count.
func sumOfMedians(perDoc [][]float64) float64 {
	var sum float64
	for _, xs := range perDoc {
		sum += median(xs)
	}
	return sum
}

// A run rebuilds its store at least minRecoveries times, and more until
// recoveryBudget of CPU time is spent, so that a short recovery is the
// median of many; recover_cpu_s is the median.
const (
	minRecoveries  = 3
	recoveryBudget = 5 * time.Second
)

// moreRecoveries reports whether a run that has timed these recoveries, in
// CPU seconds, should time another.
func moreRecoveries(done []float64) bool {
	var spent float64
	for _, s := range done {
		spent += s
	}
	return len(done) < minRecoveries || spent < recoveryBudget.Seconds()
}

// liveHeapMB is the live heap after a forced GC with keep still referenced.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// traceScenarioWorkload runs one unit of a scenario workload twice per
// document, untraced and then traced, checks that the two score tables are
// identical (the wrappers are transparent), and reports the per-layer
// metrics. It returns the spans for writing out.
func traceScenarioWorkload(w scenarioWorkload, seed int64, res *result) []span {
	tr := newTracer()
	var plainRun, tracedRun time.Duration
	var series, appended, samples, points, events, published, delivered uint64
	var rounds, arbitrated, conflicts, findings, planned, honored int
	var ms0, ms1 runtime.MemStats
	var mallocs, gcs, pauseNs uint64
	for _, spec := range w.specs(seed) {
		res.Attempted++
		runtime.ReadMemStats(&ms0)
		plain, err := runScenario(spec, nil)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			res.fail("%s seed %d: %v", spec.Name, spec.Seed, err)
			return nil
		}
		mallocs += ms1.Mallocs - ms0.Mallocs
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		plainRun += plain.run
		plainDigest := plain.digest
		plain = nil

		r, err := runScenario(spec, tr)
		if err != nil {
			res.fail("%s seed %d traced: %v", spec.Name, spec.Seed, err)
			return nil
		}
		switch {
		case r.checkErr != nil:
			res.fail("%v", r.checkErr)
		case r.digest != plainDigest:
			res.fail("%s seed %d: traced score table differs from the untraced one", spec.Name, spec.Seed)
		}
		tracedRun += r.run
		series += uint64(r.rt.DB.NumSeries())
		appended += r.rt.DB.Appended()
		s, p, _ := r.rt.Pipe.Stats()
		samples += s
		points += p
		events += r.rt.Engine.Executed()
		pub, del := r.rt.Bus.Stats()
		published += pub
		delivered += del
		fm := r.rt.Ctl.Coordinator().Metrics()
		rounds += fm.Rounds
		arbitrated += fm.Arbitrated
		conflicts += fm.Conflicts
		for _, l := range r.probe.loops {
			m := l.Metrics()
			findings += m.Findings
			planned += m.PlannedActions
			honored += m.HonoredActions
		}
	}

	spans := tr.snapshot()
	layers := aggregate(spans)
	fillLayers(res, layers)
	res.metric("tsdb.series", float64(series), "count")
	res.metric("tsdb.appended", float64(appended), "count")
	res.metric("telemetry.samples", float64(samples), "count")
	res.metric("telemetry.points", float64(points), "count")
	res.metric("core.findings", float64(findings), "count")
	res.metric("core.actions_planned", float64(planned), "count")
	res.metric("core.actions_honored", float64(honored), "count")
	if planned > 0 {
		res.metric("core.honored_per_planned", float64(honored)/float64(planned), "ratio")
	}
	res.metric("fleet.rounds", float64(rounds), "count")
	res.metric("fleet.arbitrated", float64(arbitrated), "count")
	res.metric("fleet.conflicts", float64(conflicts), "count")
	var roundBusy time.Duration
	if l := layers[spanRound]; l != nil {
		roundBusy = l.busy
		s := append([]float64(nil), l.durations...)
		res.metric("fleet.round_ms.p50", median(s), "ms")
	}
	res.metric("sim.events", float64(events), "count")
	res.metric("bus.published", float64(published), "count")
	res.metric("bus.delivered", float64(delivered), "count")
	res.metric("cycle.other_s", (tracedRun - roundBusy).Seconds(), "s")
	res.metric("go.mallocs", float64(mallocs), "count")
	res.metric("go.gc_cycles", float64(gcs), "count")
	res.metric("go.gc_pause_ms", float64(pauseNs)/1e6, "ms")
	res.metric("trace.overhead", tracedRun.Seconds()/plainRun.Seconds(), "ratio")
	fmt.Printf("# Run wall time untraced %.4f s, traced %.4f s\n", plainRun.Seconds(), tracedRun.Seconds())
	return spans
}
