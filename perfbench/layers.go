package main

import "fmt"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload. The
// README gives each one's meaning per workload. The times are process CPU
// time, which host steal does not inflate.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"recover_cpu_s", "s"},
}

// tracedCases are the cases whose MAPE phases are reported.
var tracedCases = []string{"power", "ost", "ioqos", "misconfig", "maintenance"}

// perLayer are the metrics a traced run reports, on every workload; a layer
// a workload does not exercise reads 0 there. The live-serve latencies lead:
// they are end-to-end figures, reported from the untraced half of a traced
// run because, as wall times, their run-to-run spread is too wide to bound.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	add("ms", "query_ms.p50", "query_ms.p99")
	add("ratio", "query_slo_ratio")
	add("ms", "ingest_ms.p50", "ingest_ms.p95")
	for _, q := range []string{spanLatestInto, spanWindowInto, spanLatestValue, spanQueryVisit, spanQueryRollup, spanQuery} {
		add("count", q+".calls")
		add("s", q+".busy_s")
		if q == spanLatestInto {
			add("ns", q+".ns_per_series")
		}
	}
	add("count", "tsdb.series", "tsdb.appended")
	add("s", "tsdb.append.busy_s")
	add("ns", "tsdb.append.ns_per_point")
	add("count", "telemetry.samples", "telemetry.points")
	add("s", "hw.collect_s")
	for _, c := range tracedCases {
		for _, ph := range []string{"observe_s", "observe_self_s", "analyze_s", "plan_s", "execute_s"} {
			add("s", "core."+c+"."+ph)
		}
	}
	add("count", "core.findings", "core.actions_planned", "core.actions_honored")
	add("ratio", "core.honored_per_planned")
	add("count", "fleet.rounds", "fleet.arbitrated", "fleet.conflicts")
	add("ms", "fleet.round_ms.p50")
	add("count", "sim.events", "bus.published", "bus.delivered")
	add("s", "cycle.other_s")
	add("count", "wal.append.calls")
	add("s", "wal.append.busy_s")
	add("bytes", "wal.bytes")
	add("count", "wal.syncs", "wal.backlog_rejects")
	add("s", "wal.replay_s", "tsdb.apply_wal_s")
	add("ms", "gateway.handler_ms.p50", "gateway.handler_ms.p99")
	add("count", "gateway.coalesced", "gateway.gzipped")
	for _, c := range queryClasses {
		add("ms", "gateway."+c.name+"_ms.p99")
	}
	add("count", "go.mallocs", "go.gc_cycles")
	add("ms", "go.gc_pause_ms")
	add("ratio", "trace.overhead")
	add("ms", "generator.late_ms.p99")
	return out
}()

// fillLayers reports the per-layer metrics derived from a traced run's
// spans, then sets every per-layer metric the workload did not produce to 0.
func fillLayers(res *result, layers map[string]*layer) {
	get := func(name string) *layer {
		if l := layers[name]; l != nil {
			return l
		}
		return &layer{}
	}
	for _, q := range []string{spanLatestInto, spanWindowInto, spanLatestValue, spanQueryVisit, spanQueryRollup, spanQuery} {
		l := get(q)
		res.metric(q+".calls", float64(l.calls), "count")
		res.metric(q+".busy_s", l.busy.Seconds(), "s")
	}
	if l := get(spanLatestInto); l.items > 0 {
		res.metric(spanLatestInto+".ns_per_series", float64(l.busy.Nanoseconds())/float64(l.items), "ns")
	}
	for _, c := range tracedCases {
		for _, ph := range phaseNames {
			l := get("core." + c + "." + ph)
			res.metric(fmt.Sprintf("core.%s.%s_s", c, ph), l.busy.Seconds(), "s")
			if ph == "observe" {
				res.metric(fmt.Sprintf("core.%s.observe_self_s", c), l.self.Seconds(), "s")
			}
		}
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			res.metric(m.name, 0, m.unit)
		}
	}
}
