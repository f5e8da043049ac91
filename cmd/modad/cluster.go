// Multi-node modad: -role=coordinator runs the placement/arbitration brain
// with no simulation of its own, -role=worker runs the usual simulation and
// loop stack but spawns only what the coordinator assigns. Both roles reuse
// the single-process building blocks — the bus bridge, the control service,
// the tsdb service — so the operator-facing wire surface is unchanged.
package main

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/cluster"
	"autoloop/internal/control"
	"autoloop/internal/gateway"
	"autoloop/internal/wal"
)

// clusterConfig carries the parsed flag values into the coordinator and
// worker entry points.
type clusterConfig struct {
	Role       string
	Addr       string // operator-facing TCP bridge (coordinator)
	HTTPAddr   string
	ReadTokens []string
	OpTokens   []string
	Speed      int
	Duration   time.Duration
	SpecsPath  string
	WALDir     string
	Fsync      string

	Join        string // worker: coordinator cluster address
	ClusterAddr string // coordinator: address workers join
	Node        string // worker: unique node name
	Lease       time.Duration
	Grace       time.Duration // suspect window past the lease before failover
	Heartbeat   time.Duration
	ArbWindow   time.Duration
}

// runCoordinator is the cluster brain: it owns the placement ring, the lease
// table, the cross-node arbiter, and the scatter-gather layer; it runs no
// simulation. Operators connect to -addr (or the HTTP gateway) and see the
// usual control.v1 and tsdb.query surface; workers join on -cluster-addr.
func runCoordinator(cfg clusterConfig) error {
	specsJSON := []byte(defaultSpecs)
	if cfg.SpecsPath != "" {
		data, err := os.ReadFile(cfg.SpecsPath)
		if err != nil {
			return err
		}
		specsJSON = data
	}
	specs, err := control.ParseSpecs(specsJSON)
	if err != nil {
		return err
	}

	b := bus.New()

	// The placement ledger: every spec admission, assignment, ack, and lease
	// expiry is journaled, so a restarted coordinator rebuilds its table and
	// reconciles against worker re-Hellos instead of re-spawning the fleet.
	var w *wal.WAL
	if cfg.WALDir != "" {
		pol, err := wal.ParseSyncPolicy(cfg.Fsync)
		if err != nil {
			return err
		}
		if w, err = wal.Open(cfg.WALDir, wal.Options{Sync: pol}); err != nil {
			return err
		}
		defer w.Close()
	}

	coord := cluster.NewCoordinator(b, cluster.Options{
		Source:    "coordinator",
		Lease:     cfg.Lease,
		Grace:     cfg.Grace,
		ArbWindow: cfg.ArbWindow,
		Registry:  cases.NewRegistry(),
		Ledger:    w,
	})
	defer coord.Close()

	recovered := 0
	if w != nil {
		r, err := w.Replay(1)
		if err != nil {
			return err
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return fmt.Errorf("ledger replay: %w", err)
			}
			if rec.Kind != wal.KindClusterEvent {
				continue
			}
			if err := coord.ApplyWAL(rec.Payload); err != nil {
				r.Close()
				return fmt.Errorf("ledger replay seq %d: %w", rec.Seq, err)
			}
			recovered++
		}
		r.Close()
		coord.RestoreDone()
		if recovered > 0 {
			fmt.Printf("modad: coordinator recovered %d ledger records (%d specs) from %s\n",
				recovered, coord.Stats().Specs, cfg.WALDir)
		}
	}

	// A fresh coordinator admits the configured specs; a recovered one
	// already holds its table (re-admitting would be rejected as duplicates).
	if recovered == 0 {
		for _, spec := range specs {
			if _, err := coord.AddSpec(spec); err != nil {
				return err
			}
		}
	}

	// Two bridge servers on one bus: workers join the cluster address (and
	// receive only coordinator-to-worker topics); operators get everything.
	csrv, err := bus.NewServer(cfg.ClusterAddr, cluster.CoordExportPattern, b)
	if err != nil {
		return err
	}
	defer csrv.Close()
	srv, err := bus.NewServer(cfg.Addr, "*", b)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("modad: coordinator serving operators on %s, cluster on %s (%d specs pending placement)\n",
		srv.Addr(), csrv.Addr(), coord.Stats().Specs)

	if cfg.HTTPAddr != "" {
		gw := gateway.New(gateway.Options{
			Cluster: coord, Bus: b, WAL: w, WireServer: srv,
			ReadTokens:     cfg.ReadTokens,
			OperatorTokens: cfg.OpTokens,
		})
		if err := gw.Serve(cfg.HTTPAddr); err != nil {
			return err
		}
		defer gw.Close()
		fmt.Printf("modad: http gateway on http://%s (/v1/query, /v1/control/<op>, /v1/stream, /metrics)\n", gw.Addr())
	}

	runWallClock(cfg.Duration, func(time.Duration) { coord.Tick(time.Now()) })

	if w != nil {
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "modad: wal close:", err)
		}
	}
	s := coord.Stats()
	fmt.Printf("modad: coordinator done; %d members (%d alive, %d suspect), %d specs (%d placed), %d assigns, %d failovers, %d fanouts (%d partial), %d digests (%d denied, %d backfilled), %d ledger faults\n",
		s.Members, s.Alive, s.Suspect, s.Specs, s.Placed, s.Assigns, s.Failovers,
		s.Fanouts, s.ScatterPartials, s.DigestsSeen, s.DigestsDenied, s.DigestsBackfilled, s.LedgerFaults)
	return nil
}

// runWorker is one simulation slice of the facility: the same engine,
// telemetry, TSDB, and control stack the single-process daemon runs — but
// no specs of its own. It joins the coordinator, renews its lease, and
// spawns whatever the coordinator assigns.
func runWorker(cfg clusterConfig) error {
	if cfg.Join == "" {
		return fmt.Errorf("-role=worker needs -join=<coordinator cluster address>")
	}
	id := cfg.Node
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	d, err := newDaemon(id)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.start(); err != nil {
		return err
	}

	// The bridge link is maintained by a Reconnector: a dropped link is
	// redialed under capped exponential backoff with full jitter (a fleet of
	// workers redialing a restarted coordinator spreads out instead of
	// arriving in lockstep), behind a circuit breaker that slows probing to
	// its cooldown once the coordinator has been dead for a while. Link
	// transitions feed the agent's degraded mode: while the coordinator is
	// unreachable the loops keep ticking under local fail-open arbitration,
	// and on rejoin the agent re-Hellos and backfills its buffered digests.
	var agentRef atomic.Pointer[cluster.Agent]
	rc, err := bus.NewReconnector(cfg.Join, cluster.WorkerExportPattern, d.Bus, bus.ReconnectOptions{
		OnState: func(up bool) {
			if a := agentRef.Load(); a != nil {
				a.SetLinkState(up)
			}
		},
		Logf: func(format string, args ...any) { fmt.Printf("modad: "+format+"\n", args...) },
	})
	if err != nil {
		return fmt.Errorf("join %s: %w", cfg.Join, err)
	}
	defer rc.Close()

	coord := d.Ctl.Coordinator()
	agent, err := cluster.NewAgent(d.Bus, d.Ctl, d.svc, cluster.AgentOptions{
		ID:        id,
		Heartbeat: cfg.Heartbeat,
		Stats: func() (int, uint64, int) {
			return d.DB.NumSeries(), d.DB.Appended(), coord.Metrics().Rounds
		},
		Logf: func(format string, args ...any) { fmt.Printf("modad: "+format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	defer agent.Close()
	agentRef.Store(agent)
	fmt.Printf("modad: worker %s joined coordinator at %s (speed %dx)\n", id, cfg.Join, cfg.Speed)

	d.runSimulation(cfg.Speed, cfg.Duration)

	agent.Close()
	cm := coord.Metrics()
	am := agent.Metrics()
	dials, failures, drops := rc.Stats()
	fmt.Printf("modad: worker %s done; %d series, %d samples stored; fleet ran %d rounds (%d actions, %d arbitrated, %d remote-denied); link: %d dials (%d failed, %d drops), %d degraded spells (%d rounds, %d digests backfilled)\n",
		id, d.DB.NumSeries(), d.DB.Appended(), cm.Rounds, cm.Planned, cm.Arbitrated, cm.Remote,
		dials, failures, drops, am.DegradedEntries, am.DegradedRounds, am.DigestsBackfilled)
	return nil
}
