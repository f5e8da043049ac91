// Package hw models the hardware plane of a simulated HPC system: nodes
// grouped into racks, with per-node utilization, memory, power, and
// temperature models, hardware sensors exposed as telemetry collectors, and
// failure injection.
//
// The model is deliberately first-order — power is idle+dynamic·utilization,
// temperature follows an RC response toward a power-dependent steady state —
// because the autonomy loops only require signals with realistic structure
// (correlations across domains, inertia, noise), not cycle-accurate hardware.
package hw

import (
	"fmt"
	"math"
	"sort"
	"time"

	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
)

// NodeState describes the operational state of a node.
type NodeState int

// Node states.
const (
	NodeUp NodeState = iota
	NodeDown
	NodeDrain // running work finishes but nothing new is placed
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDown:
		return "down"
	case NodeDrain:
		return "drain"
	}
	return "unknown"
}

// Config describes the homogeneous hardware of a cluster.
type Config struct {
	Nodes        int
	NodesPerRack int
	CoresPerNode int
	MemGBPerNode float64

	IdlePowerW    float64 // per node at zero utilization
	DynamicPowerW float64 // additional per node at full utilization

	AmbientC    float64 // facility ambient temperature
	ThermalRes  float64 // °C per watt at steady state
	ThermalTauS float64 // RC time constant, seconds
	SensorNoise float64 // stddev of multiplicative sensor noise
}

// DefaultConfig returns a small but realistic configuration: 64 nodes,
// 8 per rack, 64 cores each.
func DefaultConfig() Config {
	return Config{
		Nodes:         64,
		NodesPerRack:  8,
		CoresPerNode:  64,
		MemGBPerNode:  256,
		IdlePowerW:    120,
		DynamicPowerW: 380,
		AmbientC:      22,
		ThermalRes:    0.08,
		ThermalTauS:   90,
		SensorNoise:   0.01,
	}
}

// Node is one compute node.
type Node struct {
	ID    string
	Rack  string
	State NodeState

	Cores     int
	CoresUsed int
	MemGB     float64
	MemUsedGB float64

	// util is the instantaneous CPU utilization in [0,1] driven by the
	// applications currently running on the node.
	util float64
	// tempC is the simulated component temperature with first-order inertia.
	tempC      float64
	lastUpdate time.Duration
	// thermalMult scales the node's thermal resistance; > 1 models a fan or
	// heatsink fault (failure injection for the holistic experiments).
	thermalMult float64
	// sensorMult biases the node's reported temperature without changing the
	// physical model: != 1 models a miscalibrated or flapping sensor, the
	// false-positive pressure source of the scenario engine.
	sensorMult float64
}

// Cluster owns the node fleet.
type Cluster struct {
	cfg    Config
	engine *sim.Engine
	nodes  []*Node
	byID   map[string]*Node
}

// New builds a cluster per cfg, attached to engine for time and randomness.
func New(engine *sim.Engine, cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: config requires at least one node")
	}
	if cfg.NodesPerRack <= 0 {
		cfg.NodesPerRack = cfg.Nodes
	}
	c := &Cluster{cfg: cfg, engine: engine, byID: make(map[string]*Node, cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:          fmt.Sprintf("n%03d", i),
			Rack:        fmt.Sprintf("r%02d", i/cfg.NodesPerRack),
			Cores:       cfg.CoresPerNode,
			MemGB:       cfg.MemGBPerNode,
			tempC:       cfg.AmbientC,
			thermalMult: 1,
			sensorMult:  1,
		}
		c.nodes = append(c.nodes, n)
		c.byID[n.ID] = n
	}
	return c
}

// Config returns the cluster's hardware configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the node fleet in ID order. Callers must not mutate state
// except through the cluster's methods.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node looks a node up by ID.
func (c *Cluster) Node(id string) (*Node, bool) {
	n, ok := c.byID[id]
	return n, ok
}

// UpNodes returns the IDs of nodes currently accepting work.
func (c *Cluster) UpNodes() []string {
	var ids []string
	for _, n := range c.nodes {
		if n.State == NodeUp {
			ids = append(ids, n.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// SetState transitions a node's operational state; unknown IDs are an error.
func (c *Cluster) SetState(id string, s NodeState) error {
	n, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	n.State = s
	if s == NodeDown {
		n.CoresUsed = 0
		n.MemUsedGB = 0
		n.util = 0
	}
	return nil
}

// Allocate reserves cores and memory on a node for a job, returning an error
// if the node lacks capacity or is not up.
func (c *Cluster) Allocate(id string, cores int, memGB float64) error {
	n, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	if n.State != NodeUp {
		return fmt.Errorf("cluster: node %s is %s", id, n.State)
	}
	if n.CoresUsed+cores > n.Cores {
		return fmt.Errorf("cluster: node %s has %d free cores, need %d", id, n.Cores-n.CoresUsed, cores)
	}
	if n.MemUsedGB+memGB > n.MemGB {
		return fmt.Errorf("cluster: node %s has %.0fGB free, need %.0fGB", id, n.MemGB-n.MemUsedGB, memGB)
	}
	n.CoresUsed += cores
	n.MemUsedGB += memGB
	return nil
}

// Release returns cores and memory allocated by Allocate.
func (c *Cluster) Release(id string, cores int, memGB float64) {
	n, ok := c.byID[id]
	if !ok {
		return
	}
	n.CoresUsed -= cores
	if n.CoresUsed < 0 {
		n.CoresUsed = 0
	}
	n.MemUsedGB -= memGB
	if n.MemUsedGB < 0 {
		n.MemUsedGB = 0
	}
}

// SetUtil sets a node's instantaneous CPU utilization (clamped to [0,1]),
// normally driven by the application framework.
func (c *Cluster) SetUtil(id string, util float64) {
	n, ok := c.byID[id]
	if !ok {
		return
	}
	c.advanceThermal(n)
	n.util = math.Max(0, math.Min(1, util))
}

// Util returns a node's current utilization.
func (c *Cluster) Util(id string) float64 {
	if n, ok := c.byID[id]; ok {
		return n.util
	}
	return 0
}

// PowerW returns the node's instantaneous electrical power draw.
func (n *Node) PowerW(cfg Config) float64 {
	if n.State == NodeDown {
		return 0
	}
	return cfg.IdlePowerW + cfg.DynamicPowerW*n.util
}

// advanceThermal moves the node temperature toward its power-dependent
// steady state with first-order dynamics since the last update.
func (c *Cluster) advanceThermal(n *Node) {
	now := c.engine.Now()
	dt := (now - n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	target := c.cfg.AmbientC + c.cfg.ThermalRes*n.thermalMult*n.PowerW(c.cfg)
	alpha := 1 - math.Exp(-dt/c.cfg.ThermalTauS)
	n.tempC += (target - n.tempC) * alpha
}

// SetAmbient changes the inlet-air temperature every node cools against,
// coupling the facility's supply-air setpoint into the hardware thermal
// model (raising the setpoint saves cooling energy but heats components).
// All node temperatures are advanced before the change takes effect.
func (c *Cluster) SetAmbient(ambientC float64) {
	for _, n := range c.nodes {
		c.advanceThermal(n)
	}
	c.cfg.AmbientC = ambientC
}

// Ambient returns the current inlet-air temperature.
func (c *Cluster) Ambient() float64 { return c.cfg.AmbientC }

// SetThermalFault scales a node's effective thermal resistance; multiplier 1
// is healthy, larger values model cooling faults (failed fans, blocked
// airflow) that drive the component temperature far above the fleet.
func (c *Cluster) SetThermalFault(id string, multiplier float64) error {
	n, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	if multiplier < 0.1 {
		multiplier = 0.1
	}
	c.advanceThermal(n)
	n.thermalMult = multiplier
	return nil
}

// SetSensorFault biases the reported (not physical) temperature of a node by
// a multiplicative factor; 1 is a healthy sensor. Flapping sensors toggle the
// factor on and off to inject false-positive pressure: the thermal model is
// untouched, only the telemetry lies.
func (c *Cluster) SetSensorFault(id string, multiplier float64) error {
	n, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	if multiplier < 0.1 {
		multiplier = 0.1
	}
	n.sensorMult = multiplier
	return nil
}

// TotalPowerW sums instantaneous power over the fleet (IT power, feeding the
// facility model).
func (c *Cluster) TotalPowerW() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += n.PowerW(c.cfg)
	}
	return total
}

// nodeMetrics are the per-node readings every sweep emits, in emit order.
var nodeMetrics = [...]string{"node.cpu.util", "node.power.watts", "node.temp.celsius", "node.mem.used_gb", "node.cores.used"}

const numNodeMetrics = len(nodeMetrics)

// Collector returns a telemetry collector emitting, per up node:
// node.cpu.util, node.power.watts, node.temp.celsius, node.mem.used_gb,
// node.cores.used — the "System Hardware" sensor domain of Fig. 1.
//
// The collector is also a telemetry.RefCollector. Both paths run the same
// sweep. Collect returns Points whose Labels are built on a node's first
// sweep and shared by every later one, so they are immutable: callers must
// not modify them. CollectRefs resolves each node's handles on the node's
// first sweep for a sink and, after that, fills collector-owned buffers
// without allocating.
func (c *Cluster) Collector() telemetry.Collector {
	return &collector{c: c}
}

// collector is the cluster's sensor sweep with its point and handle outputs.
type collector struct {
	c      *Cluster
	labels []telemetry.Labels // per node, built on first use, then immutable

	// Sweep output: the indices of the nodes read and their readings,
	// numNodeMetrics per node in nodeMetrics order.
	up   []int32
	vals []float64

	// Handle path: refs[i] holds node i's handles against sink; a zero
	// first handle marks an unresolved node.
	sink telemetry.RefSink
	refs [][numNodeMetrics]telemetry.SeriesRef
	out  []telemetry.SeriesRef
}

// sweep reads every up node into k.up and k.vals, drawing sensor noise in
// node then metric order.
func (k *collector) sweep() {
	c := k.c
	k.up, k.vals = k.up[:0], k.vals[:0]
	noise := func() float64 {
		if c.cfg.SensorNoise <= 0 {
			return 1
		}
		return 1 + c.engine.Rand().NormFloat64()*c.cfg.SensorNoise
	}
	for i, n := range c.nodes {
		if n.State == NodeDown {
			continue
		}
		c.advanceThermal(n)
		k.up = append(k.up, int32(i))
		k.vals = append(k.vals,
			clamp01(n.util*noise()),
			n.PowerW(c.cfg)*noise(),
			n.tempC*n.sensorMult*noise(),
			n.MemUsedGB,
			float64(n.CoresUsed),
		)
	}
}

// nodeLabels returns node i's labels, building them on first use.
func (k *collector) nodeLabels(i int32) telemetry.Labels {
	if k.labels == nil {
		k.labels = make([]telemetry.Labels, len(k.c.nodes))
	}
	if k.labels[i] == nil {
		n := k.c.nodes[i]
		k.labels[i] = telemetry.Labels{"node": n.ID, "rack": n.Rack}
	}
	return k.labels[i]
}

// Collect implements telemetry.Collector.
func (k *collector) Collect(now time.Duration) []telemetry.Point {
	k.sweep()
	pts := make([]telemetry.Point, 0, len(k.vals))
	for j, i := range k.up {
		labels := k.nodeLabels(i)
		for m, name := range nodeMetrics {
			pts = append(pts, telemetry.Point{Name: name, Labels: labels, Time: now, Value: k.vals[j*numNodeMetrics+m]})
		}
	}
	return pts
}

// CollectRefs implements telemetry.RefCollector.
func (k *collector) CollectRefs(now time.Duration, sink telemetry.RefSink) ([]telemetry.SeriesRef, []float64, error) {
	if sink != k.sink {
		k.sink = sink
		k.refs = make([][numNodeMetrics]telemetry.SeriesRef, len(k.c.nodes))
	}
	k.sweep()
	k.out = k.out[:0]
	for _, i := range k.up {
		r := &k.refs[i]
		if r[0] == 0 {
			for m, name := range nodeMetrics {
				ref, err := sink.Ref(name, k.nodeLabels(i))
				if err != nil {
					r[0] = 0
					return nil, nil, err
				}
				r[m] = ref
			}
		}
		k.out = append(k.out, r[:]...)
	}
	return k.out, k.vals, nil
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }
