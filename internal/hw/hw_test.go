package hw

import (
	"testing"
	"time"

	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

func newTestCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.NodesPerRack = 2
	cfg.SensorNoise = 0
	return e, New(e, cfg)
}

func TestNewAssignsRacks(t *testing.T) {
	_, c := newTestCluster(t)
	nodes := c.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	if nodes[0].Rack != "r00" || nodes[3].Rack != "r01" {
		t.Errorf("rack assignment: %s %s", nodes[0].Rack, nodes[3].Rack)
	}
	if _, ok := c.Node("n002"); !ok {
		t.Error("lookup n002 failed")
	}
	if _, ok := c.Node("bogus"); ok {
		t.Error("lookup bogus succeeded")
	}
}

func TestNewZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(sim.NewEngine(1), Config{})
}

func TestAllocateReleaseAccounting(t *testing.T) {
	_, c := newTestCluster(t)
	if err := c.Allocate("n000", 32, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate("n000", 32, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate("n000", 1, 0); err == nil {
		t.Error("expected core exhaustion error")
	}
	c.Release("n000", 32, 100)
	if err := c.Allocate("n000", 16, 50); err != nil {
		t.Errorf("after release: %v", err)
	}
	n, _ := c.Node("n000")
	if n.CoresUsed != 48 {
		t.Errorf("CoresUsed = %d, want 48", n.CoresUsed)
	}
}

func TestAllocateMemoryLimit(t *testing.T) {
	_, c := newTestCluster(t)
	if err := c.Allocate("n000", 1, 300); err == nil {
		t.Error("expected memory exhaustion error (node has 256GB)")
	}
}

func TestAllocateUnknownAndDownNodes(t *testing.T) {
	_, c := newTestCluster(t)
	if err := c.Allocate("nope", 1, 1); err == nil {
		t.Error("expected error for unknown node")
	}
	if err := c.SetState("n001", NodeDown); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate("n001", 1, 1); err == nil {
		t.Error("expected error for down node")
	}
	if err := c.SetState("nope", NodeUp); err == nil {
		t.Error("expected error for unknown node state change")
	}
}

func TestReleaseClampsAtZero(t *testing.T) {
	_, c := newTestCluster(t)
	c.Release("n000", 100, 100)
	n, _ := c.Node("n000")
	if n.CoresUsed != 0 || n.MemUsedGB != 0 {
		t.Errorf("release went negative: %d cores, %.0f GB", n.CoresUsed, n.MemUsedGB)
	}
}

func TestUpNodesExcludesDownAndDrain(t *testing.T) {
	_, c := newTestCluster(t)
	_ = c.SetState("n001", NodeDown)
	_ = c.SetState("n002", NodeDrain)
	up := c.UpNodes()
	if len(up) != 2 || up[0] != "n000" || up[1] != "n003" {
		t.Errorf("UpNodes = %v", up)
	}
}

func TestDownNodeClearsUsage(t *testing.T) {
	_, c := newTestCluster(t)
	_ = c.Allocate("n000", 8, 10)
	c.SetUtil("n000", 0.5)
	_ = c.SetState("n000", NodeDown)
	n, _ := c.Node("n000")
	if n.CoresUsed != 0 || n.util != 0 {
		t.Error("down node retained usage")
	}
}

func TestPowerModel(t *testing.T) {
	e, c := newTestCluster(t)
	cfg := c.Config()
	n, _ := c.Node("n000")
	if got := n.PowerW(cfg); got != cfg.IdlePowerW {
		t.Errorf("idle power = %v, want %v", got, cfg.IdlePowerW)
	}
	c.SetUtil("n000", 1.0)
	if got := n.PowerW(cfg); got != cfg.IdlePowerW+cfg.DynamicPowerW {
		t.Errorf("full power = %v", got)
	}
	_ = e
	// Total power: 1 node at full + 3 idle.
	want := 4*cfg.IdlePowerW + cfg.DynamicPowerW
	if got := c.TotalPowerW(); got != want {
		t.Errorf("TotalPowerW = %v, want %v", got, want)
	}
}

func TestThermalApproachesSteadyState(t *testing.T) {
	e, c := newTestCluster(t)
	cfg := c.Config()
	c.SetUtil("n000", 1.0)
	// Sample repeatedly so the thermal state advances with the clock.
	col := c.Collector()
	for i := 1; i <= 60; i++ {
		e.RunUntil(time.Duration(i) * 30 * time.Second)
		col.Collect(e.Now())
	}
	n, _ := c.Node("n000")
	target := cfg.AmbientC + cfg.ThermalRes*(cfg.IdlePowerW+cfg.DynamicPowerW)
	if n.tempC < target-1 || n.tempC > target+1 {
		t.Errorf("temp = %.1f, want ~%.1f after 30min", n.tempC, target)
	}
	// Idle node stays near ambient.
	idle, _ := c.Node("n003")
	idleTarget := cfg.AmbientC + cfg.ThermalRes*cfg.IdlePowerW
	if idle.tempC < cfg.AmbientC-1 || idle.tempC > idleTarget+1 {
		t.Errorf("idle temp = %.1f, want within [%.1f, %.1f]", idle.tempC, cfg.AmbientC, idleTarget)
	}
}

func TestCollectorEmitsPerUpNode(t *testing.T) {
	e, c := newTestCluster(t)
	_ = c.SetState("n001", NodeDown)
	pts := c.Collector().Collect(e.Now())
	if len(pts) != 3*5 {
		t.Fatalf("got %d points, want 15 (3 up nodes x 5 metrics)", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.Name] = true
		if p.Labels["node"] == "n001" {
			t.Error("down node must not report")
		}
	}
	for _, name := range []string{"node.cpu.util", "node.power.watts", "node.temp.celsius", "node.mem.used_gb", "node.cores.used"} {
		if !seen[name] {
			t.Errorf("missing metric %s", name)
		}
	}

	// The point path and the handle path of the same seeded run must store
	// byte-identical databases, across a node going down and coming back.
	run := func(byRef bool) []byte {
		e := sim.NewEngine(7)
		cfg := DefaultConfig()
		cfg.Nodes, cfg.NodesPerRack = 6, 3 // sensor noise on: the RNG stream is compared too
		c := New(e, cfg)
		col := c.Collector()
		db := tsdb.New(0)
		for step := 1; step <= 12; step++ {
			switch step {
			case 4:
				_ = c.SetState("n002", NodeDown)
			case 8:
				_ = c.SetState("n002", NodeUp)
			}
			c.SetUtil("n000", float64(step%4)/4)
			now := time.Duration(step) * 30 * time.Second
			e.RunUntil(now)
			if byRef {
				refs, vals, err := col.(telemetry.RefCollector).CollectRefs(now, db)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.AppendRefs(now, refs, vals); err != nil {
					t.Fatal(err)
				}
			} else if err := db.AppendBatch(col.Collect(now)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if a, b := run(false), run(true); string(a) != string(b) {
		t.Fatalf("point and handle paths diverge:\n points: %s\n refs:   %s", a, b)
	}
}

// TestCollectorRefSweepAllocs gates the warm handle sweep at 0 allocations.
func TestCollectorRefSweepAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	c := New(e, cfg)
	col := c.Collector().(telemetry.RefCollector)
	db := tsdb.New(time.Hour)
	now := time.Duration(0)
	sweep := func() {
		now += 30 * time.Second
		refs, vals, err := col.CollectRefs(now, db)
		if err != nil || len(refs) != cfg.Nodes*5 || len(vals) != len(refs) {
			t.Fatalf("CollectRefs = %d refs, %d vals, %v", len(refs), len(vals), err)
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
		t.Fatalf("warm ref sweep allocates %.1f/op, want 0", allocs)
	}
}

// TestCollectorReresolvesForNewSink checks that handles are per sink: a
// second store gets its own series, not the first store's handles.
func TestCollectorReresolvesForNewSink(t *testing.T) {
	e, c := newTestCluster(t)
	col := c.Collector().(telemetry.RefCollector)
	for _, db := range []*tsdb.DB{tsdb.New(0), tsdb.New(0)} {
		refs, vals, err := col.CollectRefs(e.Now(), db)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AppendRefs(e.Now(), refs, vals); err != nil {
			t.Fatalf("AppendRefs into a new sink: %v", err)
		}
		if db.NumSeries() != 4*5 {
			t.Errorf("NumSeries = %d, want 20", db.NumSeries())
		}
	}
}

func TestSetUtilClamps(t *testing.T) {
	_, c := newTestCluster(t)
	c.SetUtil("n000", 1.7)
	if got := c.Util("n000"); got != 1 {
		t.Errorf("util = %v, want clamped 1", got)
	}
	c.SetUtil("n000", -0.3)
	if got := c.Util("n000"); got != 0 {
		t.Errorf("util = %v, want clamped 0", got)
	}
	if got := c.Util("ghost"); got != 0 {
		t.Errorf("unknown node util = %v", got)
	}
}

func TestNodeStateString(t *testing.T) {
	if NodeUp.String() != "up" || NodeDown.String() != "down" || NodeDrain.String() != "drain" {
		t.Error("NodeState.String")
	}
	if NodeState(42).String() != "unknown" {
		t.Error("unknown NodeState.String")
	}
}
