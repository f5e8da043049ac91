package scenario_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/scenario"
	"autoloop/internal/tsdb"
)

// TestScenarioDeterministic is the contract the EXP-S* tables rest on: the
// same scenario document and seed produce byte-identical score tables across
// independently assembled stacks.
func TestScenarioDeterministic(t *testing.T) {
	run := func() string {
		rep, err := scenario.Run(scenario.Small(42), cases.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Table()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same spec+seed produced different tables:\n%s\n---\n%s", a, b)
	}
}

// TestScenarioSeedMatters guards against the opposite failure: a scorer that
// ignores the stack entirely would also be deterministic.
func TestScenarioSeedMatters(t *testing.T) {
	rep1, err := scenario.Run(scenario.Small(1), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := scenario.Run(scenario.Small(2), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Table() == rep2.Table() {
		t.Fatal("different seeds produced identical tables")
	}
}

// TestScenarioSmallEndToEnd pins the small preset's qualitative outcome: the
// fleet detects and responds to every real injection.
func TestScenarioSmallEndToEnd(t *testing.T) {
	rep, err := scenario.Run(scenario.Small(42), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Scores
	if s.Windows != 3 {
		t.Fatalf("want 3 real windows, got %d", s.Windows)
	}
	if s.Detected != s.Windows || s.Responded != s.Windows {
		t.Fatalf("fleet missed injections: detected %d/%d responded %d/%d\n%s",
			s.Detected, s.Windows, s.Responded, s.Windows, rep.Table())
	}
	if s.MeanMTTR <= 0 {
		t.Fatalf("MTTR not measured: %v", s.MeanMTTR)
	}
	if s.Findings == 0 || s.Actions == 0 {
		t.Fatalf("no scored activity: %+v", s)
	}
	if rep.Samples == 0 || rep.Points == 0 {
		t.Fatalf("telemetry did not flow: %+v", rep)
	}
	if len(rep.Loops) != 3 {
		t.Fatalf("want 3 loops, got %v", rep.Loops)
	}
}

// TestScenarioJSONPath runs the same preset through its JSON form — the
// modad -scenario path — and requires the identical table.
func TestScenarioJSONPath(t *testing.T) {
	direct, err := scenario.Run(scenario.Small(42), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(scenario.Small(42))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := scenario.Run(spec, cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if direct.Table() != viaJSON.Table() {
		t.Fatalf("JSON path diverged:\n%s\n---\n%s", direct.Table(), viaJSON.Table())
	}
}

// TestScenarioMidsizeChaos exercises the full injector library, including
// the phantom: real injections are all caught, and the phantom never counts
// as a real window.
func TestScenarioMidsizeChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("midsize scenario in -short mode")
	}
	rep, err := scenario.Run(scenario.Midsize(7), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Injections) != 5 {
		t.Fatalf("want 5 injection rows, got %d", len(rep.Injections))
	}
	s := rep.Scores
	if s.Windows != 4 {
		t.Fatalf("phantom leaked into real windows: %d", s.Windows)
	}
	if s.Detected != 4 || s.Responded != 4 {
		t.Fatalf("fleet missed chaos: detected %d responded %d\n%s", s.Detected, s.Responded, rep.Table())
	}
	var phantom *scenario.InjectionOutcome
	for i := range rep.Injections {
		if rep.Injections[i].Phantom {
			phantom = &rep.Injections[i]
		}
	}
	if phantom == nil {
		t.Fatal("no phantom row")
	}
	// The flap biases sensors well past the thermal limit, so the fleet is
	// fooled — which must surface as false-positive pressure, not credit.
	if !phantom.Detected {
		t.Fatalf("phantom not even noticed — flap too weak?\n%s", rep.Table())
	}
	if s.FalseFindings == 0 || s.FPRate() <= 0 {
		t.Fatalf("phantom detection did not count as false positives: %+v", s)
	}
	if !strings.Contains(rep.Table(), "(phantom)") || !strings.Contains(rep.Table(), "fooled") {
		t.Fatalf("table does not mark the phantom:\n%s", rep.Table())
	}
}

// TestScenarioLoopOverrides checks the attribution override path: domain
// "none" drops a loop from scoring entirely.
func TestScenarioLoopOverrides(t *testing.T) {
	spec := scenario.Small(42)
	for i := range spec.Loops {
		spec.Loops[i].Domain = "none"
	}
	rep, err := scenario.Run(spec, cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Scores
	if s.Findings != 0 || s.Actions != 0 || s.Detected != 0 {
		t.Fatalf("domain=none loops still scored: %+v", s)
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := scenario.Assemble(scenario.Small(1), nil); err == nil {
		t.Fatal("nil registry accepted")
	}
	bad := scenario.Small(1)
	bad.Loops[0].Case = "no-such-case"
	if _, err := scenario.Assemble(bad, cases.NewRegistry()); err == nil {
		t.Fatal("unknown case accepted")
	}
	invalid := scenario.Small(1)
	invalid.Name = ""
	if _, err := scenario.Assemble(invalid, cases.NewRegistry()); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRuntimeRunsOnce(t *testing.T) {
	rt, err := scenario.Assemble(scenario.Small(9), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestBuildSchedulesNothing pins the contract a daemon restores state into:
// Build constructs the stack from the seed, cadences and facility alone,
// with no engine event scheduled and no loop spawned, and the cooling plant
// already drives the nodes' inlet air.
func TestBuildSchedulesNothing(t *testing.T) {
	// Only the facility is read: no name, horizon, loops or injections.
	spec := &scenario.Spec{Seed: 3, Facility: scenario.Facility{Nodes: 8, Plant: true, OSTs: 4}}
	st, err := scenario.Build(spec, cases.NewRegistry(), tsdb.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Engine.Pending(); n != 0 {
		t.Errorf("Engine.Pending() = %d after Build, want 0", n)
	}
	if r := st.Ctl.Handle(control.Request{Op: control.OpList}); !r.OK || len(r.Loops) != 0 {
		t.Errorf("control list after Build = ok %v, %d loops; want ok, none", r.OK, len(r.Loops))
	}
	st.Plant.SetSupplySetpointC(25)
	if got := st.Cluster.Ambient(); got != 27 {
		t.Errorf("cluster ambient = %g after a 25°C setpoint, want 27 (plant bound to the cluster)", got)
	}

	if _, err := scenario.Build(spec, nil, tsdb.New(0)); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := scenario.Build(spec, cases.NewRegistry(), nil); err == nil {
		t.Error("nil TSDB accepted")
	}
	spec.Facility.Nodes = 0
	var se *scenario.SpecError
	if _, err := scenario.Build(spec, cases.NewRegistry(), tsdb.New(0)); !errors.As(err, &se) || se.Field != "facility.nodes" {
		t.Errorf("zero-node facility: err = %v, want a facility.nodes *SpecError", err)
	}
}
