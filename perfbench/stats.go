package main

import (
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the CPU time, user plus system, the process has used so
// far, summed over its threads. Time the host steals from the virtual CPUs
// is not in it, so a phase costs about the same on a busy host as on a quiet
// one, where its wall time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples. The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
// from pushing the rank up by one.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(k, n))
}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// reportable are the percentiles a timing may be reported at, highest first.
var reportable = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest reportable percentile with at least ten
// of n samples beyond it, so a tail figure never rests on a handful of
// samples. ok is false when even the median is not supported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range reportable {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), matching Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies collects durations from several goroutines, in milliseconds.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/1e6)
	l.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := slices.Clone(l.ms)
	slices.Sort(s)
	return s
}

// within counts the samples at or below limitMS.
func (l *latencies) within(limitMS float64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, v := range l.ms {
		if v <= limitMS {
			n++
		}
	}
	return n
}
