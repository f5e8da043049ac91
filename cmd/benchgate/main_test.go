package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `gomaxprocs: 2
goos: linux
goarch: amd64
pkg: autoloop/internal/bus
cpu: Some CPU
BenchmarkBusDispatch/subs=1000-2         	    1000	        34.52 ns/op	       0 B/op	       0 allocs/op
BenchmarkBusDispatch/subs=1000-2         	    1000	        36.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkBusDispatch/subs=1000-2         	    1000	        35.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkQueryMatcher-2                  	     500	     66229 ns/op
PASS
ok  	autoloop/internal/bus	1.2s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if n := len(got["BenchmarkBusDispatch/subs=1000-2"]); n != 3 {
		t.Errorf("dispatch has %d samples, want 3", n)
	}
	if v := got["BenchmarkQueryMatcher-2"][0]; v != 66229 {
		t.Errorf("matcher ns/op = %v", v)
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	autoloop/internal/bus	1.2s",
		"goos: linux",
		"BenchmarkBroken only-two-fields",
		"BenchmarkNoUnit 100 42.0 MB/s",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := map[string][]float64{
		"BenchmarkA-2":    {100, 100, 100},
		"BenchmarkB-2":    {100, 100, 100},
		"BenchmarkC-2":    {100, 100, 100},
		"BenchmarkGone-2": {100, 100, 100}, // dropped in head: reported, not failing
	}
	head := map[string][]float64{
		"BenchmarkA-2":   {110, 112, 111}, // +11%: within the 20% budget
		"BenchmarkB-2":   {130, 131, 129}, // +30%: regression
		"BenchmarkC-2":   {70, 72, 71},    // improvement
		"BenchmarkNew-2": {50},            // new: never fails the gate
	}
	report, regressions := compare(base, head, 20)
	if len(regressions) != 1 || regressions[0] != "BenchmarkB-2" {
		t.Fatalf("regressions = %v, want [BenchmarkB-2]", regressions)
	}
	for _, want := range []string{"REGRESSED", "(new, no base)", "BenchmarkC-2", "BenchmarkGone-2", "REMOVED"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestWriteArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	head := map[string][]float64{"BenchmarkA-2": {10, 30, 20}}
	b, err := readBox(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if b.CPU != "Some CPU" || b.GOMAXPROCS != 2 {
		t.Errorf("box = %+v, want Some CPU at GOMAXPROCS 2", b)
	}
	if err := writeArtifact(path, head, b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	e := a.Benchmarks["BenchmarkA-2"]
	if e.NsPerOp != 20 || e.Runs != 3 {
		t.Errorf("artifact entry = %+v, want median 20 over 3 runs", e)
	}
	if a.CPU != "Some CPU" || a.GOMAXPROCS != 2 {
		t.Errorf("artifact box = %q at %d, want Some CPU at 2", a.CPU, a.GOMAXPROCS)
	}
}
