package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/cases"
	"autoloop/internal/scenario"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

// daemonFacility is the facility every simulating modad process (single or
// worker) runs: 16 nodes under a cooling plant, and 8 OSTs at 300 MB/s with
// stripe width 4. The sampling (30s) and control-round (1m) cadences are the
// scenario defaults.
var daemonFacility = scenario.Facility{Nodes: 16, Plant: true, OSTs: 8, OSTBandwidthMBps: 300, StripeCount: 4}

// daemon is one serving process's stack: what scenario.Build constructs,
// plus the daemon-only parts — the scheduler collector, bus publishing for
// telemetry, fleet rounds and control.v1, and the tsdb query service.
type daemon struct {
	*scenario.Stack
	svc *tsdb.Service
}

// newDaemon builds the daemon stack with source tagging its bus traffic. It
// spawns no loop and schedules nothing, so a recovering process can jump the
// clock and restore state into it before start.
func newDaemon(source string) (*daemon, error) {
	// Continuous rollups: coarse aggregates are maintained at append time
	// and stay queryable for a day, long past the 2h raw retention. Rules
	// are registered before any restore so recovered series re-attach them.
	db := tsdb.New(2 * time.Hour)
	for _, rule := range []tsdb.RollupRule{
		{Metric: "node.temp.celsius", Step: 5 * time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour},
		{Metric: "facility.pue", Step: 5 * time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour},
		{Metric: "pfs.ost.lat_ms", Step: 5 * time.Minute, Agg: tsdb.AggP95, Retention: 24 * time.Hour},
	} {
		if err := db.AddRollup(rule); err != nil {
			return nil, err
		}
	}
	st, err := scenario.Build(&scenario.Spec{Seed: 1, Facility: daemonFacility}, cases.NewRegistry(), db)
	if err != nil {
		return nil, err
	}
	st.Telemetry.Register(st.Scheduler.Collector())

	// One batched pipeline stores every gathered point and fans the batch
	// out on the bus, each point on "telemetry.<name>". Loop lifecycle
	// envelopes ("loop.<name>.*"), coordinator round summaries
	// ("fleet.round", "fleet.conflict"), and control.v1 traffic travel the
	// same bus.
	st.Pipe.PublishTo(st.Bus, source)
	st.Ctl.Coordinator().PublishTo(st.Bus, source)
	st.Ctl.Attach(st.Bus, source)

	// The query endpoint: clients publish tsdb.QueryRequest payloads on
	// "tsdb.query" and receive "tsdb.result" envelopes — raw ranges, instant
	// lookups, or registered rollups via step_ms/agg.
	return &daemon{Stack: st, svc: tsdb.NewService(db).Attach(st.Bus, source)}, nil
}

// Close detaches the control and query services from the bus.
func (d *daemon) Close() {
	d.svc.Close()
	d.Ctl.Close()
}

// start sets the stack running: one control round every 2nd sample (every
// virtual minute), sampling every 30 virtual seconds from Now — so the
// schedule works from a recovered clock as well as from zero — and a rolling
// synthetic workload that keeps the signals alive. Sink errors are checked
// after each sample: a TSDB that rejects points (clock skew, invalid values)
// must surface while the daemon runs, not be swallowed into the pipeline's
// sticky error.
func (d *daemon) start() error {
	d.Pipe.Drive(d.Ctl, 2)
	var lastIngestLog time.Time
	var seenIngestErrs uint64
	d.Engine.Every(d.Engine.Now()+30*time.Second, 30*time.Second, func() bool {
		d.Pipe.Sample(d.Engine.Now())
		if _, _, errs := d.Pipe.Stats(); errs > seenIngestErrs {
			seenIngestErrs = errs
			if time.Since(lastIngestLog) >= time.Second {
				lastIngestLog = time.Now()
				fmt.Fprintf(os.Stderr, "modad: telemetry ingest: %d points rejected so far (latest: %v)\n",
					errs, d.Pipe.Err())
			}
		}
		return true
	})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("steady%02d", i)
		d.Apps.RegisterSpec(name, app.Spec{
			Name: name, TotalIters: 1 << 20,
			IterTime: sim.LogNormal{MeanV: time.Minute, CV: 0.2},
			IOEvery:  7, IOSizeMB: 256, StripeCount: 4,
		})
		if _, err := d.Scheduler.Submit(name, "ops", 2, 1000*time.Hour, 0); err != nil {
			return err
		}
	}
	return nil
}

// runWallClock calls step every 250ms with the wall time elapsed since it
// began, until duration lapses (0 = forever) or SIGINT/SIGTERM begins a
// graceful shutdown.
func runWallClock(duration time.Duration, step func(wall time.Duration)) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	start := time.Now()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			wall := time.Since(start)
			if duration > 0 && wall >= duration {
				return
			}
			step(wall)
		case sig := <-sigs:
			fmt.Printf("modad: %v: shutting down\n", sig)
			return
		}
	}
}

// runSimulation drives the daemon's engine against the wall clock, speed
// virtual seconds per wall second, from its current virtual time.
func (d *daemon) runSimulation(speed int, duration time.Duration) {
	vbase := d.Engine.Now()
	runWallClock(duration, func(wall time.Duration) {
		d.Engine.RunUntil(vbase + time.Duration(int64(wall)*int64(speed)))
	})
}
