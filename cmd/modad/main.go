// Command modad is a small MODA telemetry daemon: it runs a simulated HPC
// system in real time (wall clock, scaled), samples all sensor domains into
// a TSDB, and serves the telemetry stream, loop audit events, and the
// control.v1 runtime API over TCP as newline-delimited JSON envelopes — the
// interoperability surface the paper's question (ii) asks for. A client can
// connect with `nc`, watch the same envelopes an autonomy loop consumes,
// and manage the fleet: list loops, spawn new ones from JSON specs, pause
// and resume them, change operating modes, and approve or deny pending
// human-in-the-loop actions.
//
// Usage:
//
//	modad -addr 127.0.0.1:7675 -speed 60 -duration 2m [-specs file.json]
//	      [-wal-dir dir] [-fsync batch|always|none] [-snapshot-every 10m]
//	      [-http 127.0.0.1:7676] [-http-read-token t1,t2] [-http-op-token t3]
//
// Scenario batch mode runs a declarative chaos scenario instead of serving:
//
//	modagen scenario -preset midsize -seed 1 > midsize.json
//	modad -scenario midsize.json
//
// The scenario file describes the synthetic facility, workload mix, loop
// fleet, and fault-injection schedule (see internal/scenario); modad
// assembles the stack, runs it to the horizon on virtual time, prints the
// deterministic score table (detection, MTTR, false-positive rate, action
// efficiency), and exits.
//
// Multi-node mode splits the same daemon across processes:
//
//	modad -role=coordinator -addr :7675 -cluster-addr :7677 [-wal-dir dir]
//	modad -role=worker -join 127.0.0.1:7677 -node w1
//
// The coordinator places loop specs across the joined workers by consistent
// hashing, tracks worker leases (failing loops over on expiry), arbitrates
// contradicting actions across nodes, and answers operator list/query
// requests by scatter-gathering the workers — the operator surface (TCP and
// HTTP alike) is identical to a single process. Workers run the simulation
// and loop stack, but spawn only what the coordinator assigns.
//
// With -http the same query and control vocabulary is also served over
// HTTP: POST/GET /v1/query, POST /v1/control/<op>, live server-sent events
// on GET /v1/stream, and Prometheus-style counters on /metrics. Bearer
// tokens split read-only from operator access; with no tokens the gateway
// is open, like the TCP bridge.
//
// speed compresses virtual time: 60 means one wall second carries one
// virtual minute. The fleet is built through the control registry from JSON
// loop specs; -specs replaces the built-in pair (power + ost).
//
// With -wal-dir the daemon is durable: every accepted TSDB append, every
// knowledge-base mutation, and the loop/fleet/control bus traffic are
// journaled to a segmented write-ahead log, and the whole daemon state
// (TSDB, knowledge, control plane) is snapshotted periodically. On restart
// with the same -wal-dir, the daemon restores the newest snapshot, replays
// the WAL tail, re-spawns its fleet in the recorded lifecycle states, and
// resumes — including the pending human-approval queue. SIGINT/SIGTERM
// triggers a graceful shutdown: a final snapshot is written while the fleet
// is still live, the loops drain, and the log is fsynced and closed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/cluster"
	"autoloop/internal/control"
	"autoloop/internal/gateway"
	"autoloop/internal/scenario"
	"autoloop/internal/wal"
)

// defaultSpecs is the fleet modad deploys when no -specs file is given:
// the facility cooling loop and the OST-avoidance loop, both autonomous,
// at the control round cadence.
const defaultSpecs = `[
  {"case": "power", "period": "1m"},
  {"case": "ost", "period": "1m"}
]`

// daemonSnapshot is the combined snapshot payload stored under the "modad"
// snapshot name: the WAL sequence it covers, the virtual time it was taken
// at, and each subsystem's own serialized state.
type daemonSnapshot struct {
	Seq       uint64          `json:"seq"`
	Now       time.Duration   `json:"now"`
	TSDB      json.RawMessage `json:"tsdb"`
	Knowledge json.RawMessage `json:"knowledge"`
	Control   json.RawMessage `json:"control"`
}

// journaledTopic selects the bus traffic worth journaling: loop lifecycle
// and audit events, fleet round summaries, and control.v1 requests and
// resolutions. Telemetry topics are excluded — every accepted point is
// already journaled by the TSDB, so recording the fan-out envelopes would
// double the log for no recovery value.
func journaledTopic(topic string) bool {
	return strings.HasPrefix(topic, "loop.") ||
		strings.HasPrefix(topic, "fleet.") ||
		strings.HasPrefix(topic, "control.v1.")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "modad:", err)
		os.Exit(1)
	}
}

// checkWorkerFlags refuses the flags a worker has no use for, when set on
// the command line: a worker keeps no journal or snapshots and serves no
// HTTP, so one the operator meant to be durable fails at startup instead of
// coming back empty after a restart.
func checkWorkerFlags() error {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "wal-dir", "fsync", "snapshot-every", "http":
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return fmt.Errorf("-role=worker does not take %s: a worker keeps no journal or snapshots and serves no HTTP",
			strings.Join(set, ", "))
	}
	return nil
}

// runScenario is the -scenario batch path: the full stack assembled from
// one declarative document, run to its horizon, scored, and printed.
func runScenario(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		return err
	}
	rep, err := scenario.Run(spec, cases.NewRegistry())
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	return nil
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7675", "TCP address to serve envelopes on")
	httpAddr := flag.String("http", "", "HTTP gateway address (empty = no HTTP; e.g. 127.0.0.1:7676)")
	httpReadTok := flag.String("http-read-token", "", "comma-separated read-only bearer tokens for the HTTP gateway")
	httpOpTok := flag.String("http-op-token", "", "comma-separated operator bearer tokens for the HTTP gateway (no tokens at all = open access)")
	speed := flag.Int("speed", 60, "virtual seconds per wall second")
	duration := flag.Duration("duration", 2*time.Minute, "wall-clock run time (0 = forever)")
	specsPath := flag.String("specs", "", "JSON loop-spec file replacing the built-in fleet")
	scenarioPath := flag.String("scenario", "", "scenario file: assemble the described facility, run it to its horizon on virtual time, print the score table, and exit (batch mode; see modagen scenario)")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory (empty = no durability)")
	fsyncMode := flag.String("fsync", "batch", "WAL fsync policy: batch, always, or none")
	snapEvery := flag.Duration("snapshot-every", 10*time.Minute, "virtual time between snapshots")
	role := flag.String("role", "single", "process role: single (everything in one binary), coordinator, or worker")
	join := flag.String("join", "", "worker: coordinator cluster address to join (required with -role=worker)")
	clusterAddr := flag.String("cluster-addr", "127.0.0.1:7677", "coordinator: TCP address workers join")
	node := flag.String("node", "", "worker: unique node name (default <hostname>-<pid>)")
	leaseTTL := flag.Duration("lease", cluster.DefaultLeaseTTL, "coordinator: worker lease TTL before a worker turns suspect")
	leaseGrace := flag.Duration("lease-grace", 0, "coordinator: suspect window past the lease before failover (0 = one extra lease, negative = none)")
	heartbeat := flag.Duration("heartbeat", cluster.DefaultHeartbeat, "worker: lease-renewal period")
	arbWindow := flag.Duration("arb-window", cluster.DefaultArbWindow, "coordinator: cross-node arbitration grant window")
	flag.Parse()

	// Scenario batch mode: no serving surface, no durability, no wall clock —
	// decode, assemble, run to the horizon, print the deterministic score
	// table, exit.
	if *scenarioPath != "" {
		if *role != "single" {
			return fmt.Errorf("-scenario is a batch mode, incompatible with -role=%s", *role)
		}
		if *walDir != "" {
			return fmt.Errorf("-scenario is a batch mode, incompatible with -wal-dir")
		}
		return runScenario(*scenarioPath)
	}

	// Coordinator and worker roles branch off here; the single-process path
	// below adds durability and the full serving surface to the same stack
	// a worker runs (newDaemon).
	if *role == "worker" {
		if err := checkWorkerFlags(); err != nil {
			return err
		}
	}
	if *role != "single" {
		cfg := clusterConfig{
			Role: *role, Addr: *addr, HTTPAddr: *httpAddr,
			ReadTokens: splitTokens(*httpReadTok), OpTokens: splitTokens(*httpOpTok),
			Speed: *speed, Duration: *duration, SpecsPath: *specsPath,
			WALDir: *walDir, Fsync: *fsyncMode,
			Join: *join, ClusterAddr: *clusterAddr, Node: *node,
			Lease: *leaseTTL, Grace: *leaseGrace, Heartbeat: *heartbeat, ArbWindow: *arbWindow,
		}
		switch *role {
		case "coordinator":
			return runCoordinator(cfg)
		case "worker":
			return runWorker(cfg)
		default:
			return fmt.Errorf("unknown -role %q (want single, coordinator, or worker)", *role)
		}
	}

	specsJSON := []byte(defaultSpecs)
	if *specsPath != "" {
		data, err := os.ReadFile(*specsPath)
		if err != nil {
			return err
		}
		specsJSON = data
	}
	specs, err := control.ParseSpecs(specsJSON)
	if err != nil {
		return err
	}

	// Durability, part 1: open the log (repairing any torn tail left by a
	// crash) and read the newest valid snapshot. The virtual clock resumes
	// from the snapshot's time, so it jumps right after the stack is built,
	// while nothing is scheduled against it yet.
	var w *wal.WAL
	var snap *daemonSnapshot
	if *walDir != "" {
		pol, err := wal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		if w, err = wal.Open(*walDir, wal.Options{Sync: pol}); err != nil {
			return err
		}
		defer w.Close()
		payload, _, ok, err := wal.LatestSnapshot(*walDir, "modad")
		if err != nil {
			return err
		}
		if ok {
			snap = &daemonSnapshot{}
			if err := json.Unmarshal(payload, snap); err != nil {
				return fmt.Errorf("decode snapshot: %w", err)
			}
		}
	}

	d, err := newDaemon("modad")
	if err != nil {
		return err
	}
	defer d.Close()
	engine, db, kb, ctl := d.Engine, d.DB, d.Knowledge, d.Ctl
	if snap != nil && snap.Now > 0 {
		engine.RunUntil(snap.Now) // nothing scheduled yet: jumps the clock
	}

	// Durability, part 2: restore each subsystem from the snapshot, replay
	// the WAL tail on top, and only then attach the journals — replayed
	// records must never be re-journaled.
	recovered := false
	if w != nil {
		replayFrom := uint64(1)
		if snap != nil {
			if err := db.RestoreSnapshot(snap.TSDB); err != nil {
				return err
			}
			if err := kb.Load(bytes.NewReader(snap.Knowledge)); err != nil {
				return err
			}
			if err := ctl.Restore(snap.Control); err != nil {
				return err
			}
			replayFrom = snap.Seq + 1
			recovered = true
		}
		replayed := 0
		r, err := w.Replay(replayFrom)
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
				return fmt.Errorf("wal replay: %w", err)
			}
			switch rec.Kind {
			case wal.KindTSDBAppend:
				err = db.ApplyWAL(rec.Payload)
			case wal.KindKnowledgeOp:
				err = kb.ApplyWAL(rec.Seq, rec.Payload)
			case wal.KindBusEnvelope:
				// Audit trail only: recorded traffic is not re-published.
			}
			if err != nil {
				r.Close()
				return fmt.Errorf("wal replay seq %d: %w", rec.Seq, err)
			}
			replayed++
		}
		r.Close()
		if recovered || replayed > 0 {
			fmt.Printf("modad: recovered from %s: snapshot @ seq %d + %d replayed records (%d series, %d samples)\n",
				*walDir, replayFrom-1, replayed, db.NumSeries(), db.Appended())
		}

		db.Journal(w)
		kb.Journal(w)
		// The bus audit trail is best-effort, with a shed-then-halt policy on
		// storage faults: a retryable fault (a full disk, a short write, a
		// backlogged group commit — wal.Retryable) sheds the envelope and
		// keeps going, since the WAL retries its buffered tail on the next
		// append; a fatal fault (a failed fsync: the kernel may have dropped
		// dirty pages and will not say so twice) halts journaling for good —
		// logging one line, not a corrupt trail. Loop state and telemetry
		// journaling are unaffected; their appends surface errors on their
		// own paths.
		var lastJournalErr atomic.Int64 // unix nanos of the last logged failure
		var journalHalted atomic.Bool
		d.Bus.Journal(func(env bus.Envelope) {
			if journalHalted.Load() || !journaledTopic(env.Topic) {
				return
			}
			line, err := bus.Encode(env)
			if err == nil {
				_, err = w.Append(wal.KindBusEnvelope, line)
			}
			if err != nil {
				if !wal.Retryable(err) {
					journalHalted.Store(true)
					fmt.Fprintf(os.Stderr, "modad: bus journal halted on fatal WAL fault: %v\n", err)
					return
				}
				// Rate-limited to 1/s: a broken audit trail must surface
				// while the daemon runs, not via the sticky error at Close.
				if now := time.Now().UnixNano(); now-lastJournalErr.Load() >= int64(time.Second) {
					lastJournalErr.Store(now)
					fmt.Fprintf(os.Stderr, "modad: bus journal shed %s: %v\n", env.Topic, err)
				}
			}
		})
	}

	// A recovered control plane re-spawned its fleet from the snapshot; a
	// fresh one deploys the configured specs.
	if !recovered {
		for _, spec := range specs {
			if _, err := ctl.Spawn(spec); err != nil {
				return err
			}
		}
	}
	if err := d.start(); err != nil {
		return err
	}

	// snapshot writes one combined snapshot covering everything the log
	// holds up to now, then compacts the segments it supersedes. Sync comes
	// first: a snapshot must never claim to cover records that are still
	// sitting in the group-commit buffer.
	snapshot := func() error {
		if w == nil {
			return nil
		}
		if err := w.Sync(); err != nil {
			return err
		}
		seq := w.LastSeq()
		tsnap, err := db.Snapshot()
		if err != nil {
			return err
		}
		var kbuf bytes.Buffer
		if err := kb.Save(&kbuf); err != nil {
			return err
		}
		csnap, err := ctl.Snapshot()
		if err != nil {
			return err
		}
		payload, err := json.Marshal(&daemonSnapshot{
			Seq: seq, Now: engine.Now(),
			TSDB: tsnap, Knowledge: kbuf.Bytes(), Control: csnap,
		})
		if err != nil {
			return err
		}
		if err := wal.WriteSnapshot(*walDir, "modad", seq, payload); err != nil {
			return err
		}
		_, err = w.Compact(seq + 1)
		return err
	}
	if w != nil && *snapEvery > 0 {
		engine.Every(engine.Now()+*snapEvery, *snapEvery, func() bool {
			if err := snapshot(); err != nil {
				fmt.Fprintln(os.Stderr, "modad: snapshot:", err)
			}
			return true
		})
	}

	srv, err := bus.NewServer(*addr, "*", d.Bus)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("modad: serving telemetry, loop, fleet, and control.v1 envelopes on %s (speed %dx, %d loops)\n",
		srv.Addr(), *speed, ctl.Coordinator().Len())

	// The HTTP gateway serves the same query and control vocabulary over
	// /v1, plus SSE subscriptions and Prometheus-style self-telemetry.
	if *httpAddr != "" {
		gw := gateway.New(gateway.Options{
			Store: db, Control: ctl, Bus: d.Bus,
			Pipeline: d.Pipe, WAL: w, WireServer: srv,
			ReadTokens:     splitTokens(*httpReadTok),
			OperatorTokens: splitTokens(*httpOpTok),
		})
		if err := gw.Serve(*httpAddr); err != nil {
			return err
		}
		defer gw.Close()
		fmt.Printf("modad: http gateway on http://%s (/v1/query, /v1/control/<op>, /v1/stream, /metrics)\n", gw.Addr())
	}

	// Drive the simulation against the wall clock; SIGINT/SIGTERM begins a
	// graceful shutdown.
	d.runSimulation(*speed, *duration)

	// Shutdown: snapshot FIRST, while the fleet still holds its live
	// lifecycle states — a restart with the same -wal-dir resumes exactly
	// here. Then drain the loops so no plan is cut mid-action, and finally
	// flush and fsync the log.
	if err := snapshot(); err != nil {
		fmt.Fprintln(os.Stderr, "modad: final snapshot:", err)
	}
	for _, st := range ctl.Handle(control.Request{Op: control.OpList}).Loops {
		if st.Name == st.Group && (st.State == "created" || st.State == "running") {
			ctl.Handle(control.Request{Op: control.OpDrain, Loop: st.Name})
		}
	}
	ctl.Tick(engine.Now() + time.Minute) // one settling round completes the drains
	if w != nil {
		if err := kb.JournalErr(); err != nil {
			fmt.Fprintln(os.Stderr, "modad: journal:", err)
		}
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "modad: wal close:", err)
		}
		m := w.Metrics()
		fmt.Printf("modad: wal closed; %d records, %d bytes, %d syncs, %d rotations\n",
			m.Appends, m.Bytes, m.Syncs, m.Rotations)
	}
	cm := ctl.Coordinator().Metrics()
	_, _, sinkErrs := d.Pipe.Stats()
	fmt.Printf("modad: done; %d series, %d samples stored (%d ingest errors); fleet ran %d rounds (%d actions, %d arbitrated)\n",
		db.NumSeries(), db.Appended(), sinkErrs, cm.Rounds, cm.Planned, cm.Arbitrated)
	return nil
}

// splitTokens parses a comma-separated token list, dropping empties.
func splitTokens(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
