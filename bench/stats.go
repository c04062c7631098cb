package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is one latency observation in milliseconds. Weight lets one
// timed group stand for many operations: the sim-sweep workload times a
// group of seeds and records the per-seed latency once, weighted by the
// group's seed count.
type sample struct {
	ms     float64
	weight float64
}

// quantile returns the weighted q-quantile of samples: the smallest value
// whose cumulative weight reaches q of the total. It sorts samples in
// place. Unweighted samples (all weights 1) are linearly interpolated
// between neighbouring ranks, which keeps small sample sets from jumping
// between order statistics from run to run.
func quantile(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].ms < samples[j].ms })
	uniform := true
	total := 0.0
	for _, s := range samples {
		total += s.weight
		if s.weight != 1 {
			uniform = false
		}
	}
	if uniform {
		pos := q * float64(len(samples)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if math.IsInf(samples[hi].ms, 1) {
			return samples[hi].ms
		}
		return samples[lo].ms + (samples[hi].ms-samples[lo].ms)*(pos-float64(lo))
	}
	target := q * total
	cum := 0.0
	for _, s := range samples {
		cum += s.weight
		if cum >= target {
			return s.ms
		}
	}
	return samples[len(samples)-1].ms
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the method
// of Python's statistics.quantiles(xs, n=4) (the "exclusive" method),
// so spreads computed here match the acceptance rule stated in README.md.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPU reads the runtime's estimate of CPU seconds spent in garbage
// collection and in total, for proc.gc_cpu_frac.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
