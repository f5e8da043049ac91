// Command perfbench is the repository's end-to-end benchmark: it drives the
// autoloop stack through three workloads in one process and prints every
// metric by name and unit, then one JSON result line. With -trace 1 it
// repeats the workload traced and prints the per-layer metrics instead.
// See README.md in this directory for the workloads and the metric map.
//
//	bash perfbench/run.sh --workload scenario-midsize --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// outDir holds the trace files, relative to the checkout root the benchmark
// runs from.
const outDir = ".bench_build/perfbench"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the operations attempted, the ones whose
// output check failed, and the metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	errs []string
}

func newResult() *result { return &result{Metrics: make(map[string]metricValue)} }

// fail counts one failed output check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *result) metric(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// latency reports named nearest-rank percentiles of l as prefix.pNN in
// milliseconds, and states the sample count and the highest percentile it
// supports; a named percentile with fewer than ten samples beyond it is
// flagged as weak.
func (r *result) latency(prefix string, l *latencies, ps ...float64) {
	s := l.sorted()
	tail, _ := tailPercentile(len(s))
	fmt.Printf("# %s: %d samples, tail p%g = %.4g ms\n", prefix, len(s), tail, percentile(s, tail))
	for _, p := range ps {
		name := fmt.Sprintf("%s.p%g", prefix, p)
		if n := beyond(len(s), p); n < 10 {
			fmt.Printf("# %s rests on %d samples beyond it: weak\n", name, n)
		}
		r.metric(name, percentile(s, p), "ms")
	}
}

// env describes the box: every figure is relative to it.
func env() []string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return []string{
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("cpu=%s", cpuModel()),
		fmt.Sprintf("go=%s", runtime.Version()),
		fmt.Sprintf("commit=%s", commit),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	workload := flag.String("workload", "", "scenario-stress10k, scenario-midsize or live-serve")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1: run traced and report the per-layer metrics")
	flag.Parse()

	facts := append(env(), fmt.Sprintf("workload=%s", *workload), fmt.Sprintf("seed=%d", *seed),
		fmt.Sprintf("seconds=%g", *seconds), fmt.Sprintf("trace=%d", *trace))
	fmt.Printf("# %s\n", strings.Join(facts, " "))

	res := newResult()
	var spans []span
	if w, ok := scenarioWorkloads[*workload]; ok {
		if *trace == 1 {
			spans = traceScenarioWorkload(w, *seed, res)
		} else {
			runScenarioWorkload(w, *seed, *seconds, res)
		}
	} else if *workload == "live-serve" {
		if *trace == 1 {
			spans = traceLive(*seed, *seconds, res)
		} else {
			runLive(*seed, *seconds, res)
		}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	if spans != nil {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			res.errs = append(res.errs, err.Error())
		} else {
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.csv", *workload, *seed))
			if err := writeSpans(path, facts, spans); err != nil {
				res.errs = append(res.errs, err.Error())
			} else {
				fmt.Printf("# spans: %d written to %s\n", len(spans), path)
			}
		}
	}

	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if len(res.errs) == 0 && len(res.Metrics) != len(want) {
		res.errs = append(res.errs, fmt.Sprintf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want)))
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.name]; len(res.errs) == 0 && (!ok || got.Unit != m.unit) {
			res.errs = append(res.errs, fmt.Sprintf("metric %s (%s) not reported as listed", m.name, m.unit))
		}
	}

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	res.Correct = len(res.errs) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
