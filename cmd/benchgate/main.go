// Command benchgate is the CI perf-regression gate: it parses two
// `go test -bench` outputs (the PR base and head runs of the key-benchmark
// smoke set), compares the per-benchmark median ns/op, and exits non-zero
// when any benchmark present in both runs regressed by more than the
// allowed percentage. benchstat renders the human-readable comparison in the
// same job; benchgate is the machine-checkable pass/fail.
//
// Usage:
//
//	benchgate -base base.txt -head head.txt [-max-regress 20] [-json BENCH.json]
//
// Benchmarks that exist only in the head run (newly added) are reported but
// never fail the gate; with -json the head medians are written as a JSON
// artifact so the repo's perf trajectory accumulates run over run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	basePath := flag.String("base", "", "bench output of the PR base")
	headPath := flag.String("head", "", "bench output of the PR head")
	maxRegress := flag.Float64("max-regress", 20, "maximum allowed ns/op regression, percent")
	jsonPath := flag.String("json", "", "write the head run's medians as a JSON artifact")
	flag.Parse()
	if *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -head is required")
		os.Exit(2)
	}
	head, err := parseFile(*headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(head) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results in", *headPath)
		os.Exit(2)
	}
	if *jsonPath != "" {
		b, err := readBoxFile(*headPath)
		if err == nil {
			err = writeArtifact(*jsonPath, head, b)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
	}
	if *basePath == "" {
		fmt.Printf("benchgate: %d head benchmarks recorded, no base to compare\n", len(head))
		return
	}
	base, err := parseFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	report, regressions := compare(base, head, *maxRegress)
	fmt.Print(report)
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) regressed more than %.0f%%\n", len(regressions), *maxRegress)
		os.Exit(1)
	}
}

// parseFile reads every benchmark result line of a `go test -bench` output,
// returning name -> ns/op samples (one per -count run).
func parseFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

func parse(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, ns, ok := parseLine(sc.Text())
		if ok {
			out[name] = append(out[name], ns)
		}
	}
	return out, sc.Err()
}

// box is the machine a bench run came from, as its output records it: the
// "cpu:" header go test prints and the "gomaxprocs:" line bench.sh prints.
// Numbers are only comparable between runs on the same box.
type box struct {
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

func readBoxFile(path string) (box, error) {
	f, err := os.Open(path)
	if err != nil {
		return box{}, err
	}
	defer f.Close()
	return readBox(f)
}

// readBox takes the first cpu and gomaxprocs header lines of a run.
func readBox(r io.Reader) (box, error) {
	var b box
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "cpu: "); ok && b.CPU == "" {
			b.CPU = strings.TrimSpace(v)
		}
		if v, ok := strings.CutPrefix(line, "gomaxprocs: "); ok && b.GOMAXPROCS == 0 {
			b.GOMAXPROCS, _ = strconv.Atoi(strings.TrimSpace(v))
		}
	}
	return b, sc.Err()
}

// parseLine extracts (name, ns/op) from one result line, e.g.
//
//	BenchmarkBusDispatch/subs=1000-2  1000  34.52 ns/op  0 B/op  0 allocs/op
func parseLine(line string) (name string, nsPerOp float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	for i := 2; i+1 < len(fields); i++ {
		if fields[i+1] == "ns/op" {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return "", 0, false
			}
			return fields[0], v, true
		}
	}
	return "", 0, false
}

// median returns the middle sample (mean of the middle two for even n),
// which is what makes the gate robust to one noisy CI run.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// compare renders a per-benchmark delta table and returns the names whose
// median regressed beyond maxRegress percent. Benchmarks present only in
// the base run are reported as removed — a regression can't hide by
// deleting or renaming its benchmark unnoticed — but do not fail the gate.
func compare(base, head map[string][]float64, maxRegress float64) (report string, regressions []string) {
	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		hm := median(head[name])
		bs, inBase := base[name]
		if !inBase {
			fmt.Fprintf(&b, "%-50s %12.1f ns/op  (new, no base)\n", name, hm)
			continue
		}
		bm := median(bs)
		delta := 100 * (hm - bm) / bm
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			regressions = append(regressions, name)
		}
		fmt.Fprintf(&b, "%-50s %12.1f -> %12.1f ns/op  %+7.1f%%  %s\n", name, bm, hm, delta, status)
	}
	removed := make([]string, 0)
	for name := range base {
		if _, inHead := head[name]; !inHead {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(&b, "%-50s %12.1f ns/op  (REMOVED from head run)\n", name, median(base[name]))
	}
	return b.String(), regressions
}

// artifact is the JSON shape of one recorded bench run (BENCH_pr3.json).
type artifact struct {
	box
	Benchmarks map[string]artifactEntry `json:"benchmarks"`
}

type artifactEntry struct {
	NsPerOp float64 `json:"ns_per_op"`
	Runs    int     `json:"runs"`
}

func writeArtifact(path string, head map[string][]float64, b box) error {
	a := artifact{box: b, Benchmarks: make(map[string]artifactEntry, len(head))}
	for name, samples := range head {
		a.Benchmarks[name] = artifactEntry{NsPerOp: median(samples), Runs: len(samples)}
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
