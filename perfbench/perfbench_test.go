package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"autoloop/internal/cases"
	"autoloop/internal/scenario"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // exactly 10 beyond p99.9
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true}, // 9 beyond p99
		{200, 95, true},
		{100, 90, true},
		{60, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(s, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "round", parent: noSpan, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 50},  // on one plan goroutine
		{name: "b", parent: 0, start: 30, end: 70},  // overlapping, on another
		{name: "c", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "read", parent: 1, start: 20, end: 25},
	}
	self := selfTimes(spans)
	// Children cover [10,70] and [90,100]: 70 of the round's 100.
	if self[0] != 30 {
		t.Errorf("round self = %d, want 30", self[0])
	}
	if self[1] != 35 {
		t.Errorf("a self = %d, want 35", self[1])
	}
	if self[2] != 40 || self[4] != 5 {
		t.Errorf("leaf self times = %d, %d; want 40, 5", self[2], self[4])
	}
	l := aggregate(spans)["round"]
	if l.calls != 1 || l.busy != 100 || l.self != 30 {
		t.Errorf("aggregate round = %+v", *l)
	}
}

func TestOpenLoopTimesFromDueWhenGeneratorStalls(t *testing.T) {
	const stall = 60 * time.Millisecond
	dues := evenly(4, 100) // due at 0, 10, 20, 30ms
	start := time.Now()
	stalled := false
	wait := func(due time.Time) {
		sleepUntil(due)
		if !stalled { // the generator is descheduled before handing over op 0
			stalled = true
			time.Sleep(stall)
		}
	}
	ops, late := openLoop(start, dues, 2, wait, func(int) bool { return true })
	for i, o := range ops {
		// Op i was handed over no earlier than start+stall, so its
		// latency from its due time is at least stall - dues[i], although
		// the operation itself took no time.
		if min := stall - dues[i]; o.lat < min || !o.ok {
			t.Errorf("op %d: latency %v, want at least %v", i, o.lat, min)
		}
	}
	if s := late.sorted(); len(s) != 4 || s[3] < float64(stall)/1e6 {
		t.Errorf("generator lateness %v, want 4 samples up to at least %v", s, stall)
	}
}

func TestLiveQueriesKeepTheMixExactly(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		count := make([]int, len(queryClasses))
		for _, q := range liveQueries(seed, 2000) {
			count[q.class]++
		}
		for c, qc := range queryClasses {
			if want := 2000 / 10 * qc.weight; count[c] != want {
				t.Errorf("seed %d: %d %s queries, want %d", seed, count[c], qc.name, want)
			}
		}
	}
}

// TestProbeIsTransparent checks the recorded digest against the program's
// own path (the stock registry, no probe), and that the traced probe does
// not change the score table.
func TestProbeIsTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a midsize scenario twice")
	}
	spec := scenario.Midsize(7)
	rep, err := scenario.Run(spec, cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	want := recordedDigests["midsize/7"]
	if got := tableDigest(rep); got != want {
		t.Fatalf("stock run digest %s, recorded %s", got, want)
	}
	r, err := runScenario(scenario.Midsize(7), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if r.checkErr != nil || r.digest != want {
		t.Fatalf("traced run: digest %s, check %v", r.digest, r.checkErr)
	}
	if l := aggregate(r.probe.tr.snapshot())[spanRound]; l == nil || l.calls == 0 {
		t.Fatal("traced run recorded no fleet rounds")
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// harness in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
