// Control: a spec-driven daemon managed live over the control.v1 wire API.
//
// Two loops are spawned from JSON LoopSpecs through the case registry. An
// "operator terminal" — a raw TCP client speaking newline-delimited JSON
// envelopes, exactly what `nc` sees against cmd/modad — then lists the
// fleet, flips the power loop to human-in-the-loop at runtime, watches a
// pending approval arrive on control.v1.pending, and approves it over the
// wire; the next control round executes the approved action.
//
// Run: go run ./examples/control
package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/scenario"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

func main() {
	// --- the managed system and its monitoring plane ---
	st, err := scenario.Build(&scenario.Spec{Seed: 11, Facility: scenario.Facility{
		Nodes: 16, Plant: true, OSTs: 4, OSTBandwidthMBps: 300, StripeCount: 2,
	}}, cases.NewRegistry(), tsdb.New(0))
	check(err)
	engine, b := st.Engine, st.Bus
	st.Telemetry.Register(st.Scheduler.Collector())
	pipe := st.Pipe.PublishTo(b, "control-example")

	// --- the control plane: registry + env + service, attached to the bus ---
	ctl := st.Ctl.Attach(b, "control-example")
	defer ctl.Close()

	// --- spawn the fleet from declarative JSON specs ---
	specs, err := control.ParseSpecs([]byte(`[
		{"case": "power", "period": "1m"},
		{"case": "ost", "period": "1m", "config": {"Threshold": 5}}
	]`))
	check(err)
	for _, spec := range specs {
		sp, err := ctl.Spawn(spec)
		check(err)
		fmt.Printf("spawned %-5s from spec (mode %s, period %s)\n", sp.Spec.Case, sp.Spec.Mode, sp.Spec.Period)
	}
	pipe.Drive(ctl, 2) // a control round every 2nd sample = every minute
	engine.Every(30*time.Second, 30*time.Second, func() bool {
		pipe.Sample(engine.Now())
		return true
	})

	// --- the wire: TCP bridge + an operator terminal ---
	srv, err := bus.NewServer("127.0.0.1:0", "control.*", b)
	check(err)
	defer srv.Close()
	op, err := newOperator(srv.Addr())
	check(err)
	defer op.close()

	// Let the fleet run autonomously for a while, then list it.
	engine.RunUntil(5 * time.Minute)
	reply := op.call(control.Request{ID: "r1", Op: control.OpList})
	fmt.Println("\noperator: list")
	for _, st := range reply.Loops {
		fmt.Printf("  %-10s %-8s mode=%-17s executed=%d\n", st.Name, st.State, st.Mode, st.Metrics.Executed)
	}

	// Flip the power loop to human-in-the-loop at runtime: from now on its
	// actions queue for approval instead of executing.
	reply = op.call(control.Request{ID: "r2", Op: control.OpSetMode, Loop: "power-case", Mode: "human-in-the-loop"})
	fmt.Printf("\noperator: set-mode power-case human-in-the-loop -> ok=%v state=%s\n", reply.OK, reply.Loop.State)

	// The next thermal-headroom action lands in the pending queue and is
	// announced on control.v1.pending.
	pending := op.waitPending(engine, 30*time.Minute)
	fmt.Printf("\npending approval #%d: %s(%s) %+.1f — %s\n",
		pending.Seq, pending.Action.Kind, pending.Action.Subject, pending.Action.Amount, pending.Action.Explanation)

	// Approve it over the wire; the verdict is queued and the next control
	// round executes the action, publishing the final resolution.
	ack := op.verdict(control.TopicApprove, control.Verdict{ID: "r3", Seq: pending.Seq, Reason: "operator approved"})
	fmt.Printf("operator: approve #%d -> ok=%v outcome=%s\n", pending.Seq, ack.OK, ack.Resolution.Outcome)
	res := op.waitResolved(engine, pending.Seq, 30*time.Minute)
	fmt.Printf("resolved: #%d outcome=%s executed=%v\n", res.Seq, res.Outcome, res.Executed)

	reply = op.call(control.Request{ID: "r4", Op: control.OpGet, Loop: "power-case"})
	fmt.Printf("\nfinal: power-case mode=%s executed=%d deferred=%d mean-decision-latency=%s\n",
		reply.Loop.Mode, reply.Loop.Metrics.Executed, reply.Loop.Metrics.Deferred,
		reply.Loop.Metrics.MeanDecisionLatency)
}

// operator is a raw TCP control client: it writes request envelopes as JSON
// lines and sorts the inbound stream into replies, pending announcements,
// and resolutions — the programmatic form of an `nc` session.
type operator struct {
	conn     net.Conn
	replies  chan control.Reply
	pending  chan control.PendingInfo
	resolved chan control.Resolution
}

func newOperator(addr string) (*operator, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	op := &operator{
		conn:     conn,
		replies:  make(chan control.Reply, 16),
		pending:  make(chan control.PendingInfo, 16),
		resolved: make(chan control.Resolution, 16),
	}
	go op.readLoop()
	return op, nil
}

func (op *operator) close() { op.conn.Close() }

func (op *operator) readLoop() {
	sc := bufio.NewScanner(op.conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		env, err := bus.Decode(sc.Bytes())
		if err != nil {
			continue
		}
		switch env.Topic {
		case control.TopicReply:
			var r control.Reply
			if bus.DecodePayload(env, &r) == nil {
				op.replies <- r
			}
		case control.TopicPending:
			var p control.PendingInfo
			if bus.DecodePayload(env, &p) == nil {
				op.pending <- p
			}
		case control.TopicResolved:
			var r control.Resolution
			if bus.DecodePayload(env, &r) == nil {
				op.resolved <- r
			}
		}
	}
}

// send writes one envelope line to the daemon.
func (op *operator) send(topic string, payload interface{}) {
	data, err := bus.Encode(bus.Envelope{Topic: topic, Payload: payload})
	check(err)
	_, err = op.conn.Write(data)
	check(err)
}

// call sends a request and waits for its reply.
func (op *operator) call(req control.Request) control.Reply {
	op.send(control.TopicRequest, req)
	for {
		select {
		case r := <-op.replies:
			if r.ID == req.ID {
				return r
			}
		case <-time.After(5 * time.Second):
			panic("control example: no reply for " + req.Op)
		}
	}
}

// verdict sends an approve/deny envelope and waits for the ack.
func (op *operator) verdict(topic string, v control.Verdict) control.Reply {
	op.send(topic, v)
	for {
		select {
		case r := <-op.replies:
			if r.ID == v.ID {
				return r
			}
		case <-time.After(5 * time.Second):
			panic("control example: no verdict ack")
		}
	}
}

// waitPending advances virtual time round by round until a pending
// announcement arrives over the wire.
func (op *operator) waitPending(engine *sim.Engine, horizon time.Duration) control.PendingInfo {
	deadline := engine.Now() + horizon
	for engine.Now() < deadline {
		engine.RunUntil(engine.Now() + time.Minute)
		select {
		case p := <-op.pending:
			return p
		case <-time.After(300 * time.Millisecond):
		}
	}
	panic("control example: no pending approval within the horizon")
}

// waitResolved advances virtual time until the resolution for seq arrives.
func (op *operator) waitResolved(engine *sim.Engine, seq uint64, horizon time.Duration) control.Resolution {
	deadline := engine.Now() + horizon
	for engine.Now() < deadline {
		engine.RunUntil(engine.Now() + time.Minute)
		select {
		case r := <-op.resolved:
			if r.Seq == seq {
				return r
			}
		case <-time.After(300 * time.Millisecond):
		}
	}
	panic("control example: no resolution within the horizon")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
