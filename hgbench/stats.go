package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile with at least tailBeyond samples
// beyond it, with the percentile's label (97 for 352 samples). With too
// few samples for that it returns the largest sample, labelled 100.
func tail(xs []float64) (value float64, pct int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	i := n - tailBeyond - 1
	return s[i], int(math.Floor(100 * float64(i+1) / float64(n)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(d time.Duration) float64 { return d.Seconds() }

// settle collects garbage before a timed operation, as testing.B does
// before a benchmark, so the garbage one operation leaves is not
// collected during the next one's timing and each starts with the
// collector paced to its own heap.
func settle() { runtime.GC() }

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return secs(time.Since(start))
}

// timed2 runs f and returns its results and wall time in seconds.
func timed2[T any](f func() (T, error)) (T, float64, error) {
	start := time.Now()
	v, err := f()
	return v, secs(time.Since(start)), err
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample reads the Go runtime's cumulative GC CPU, total CPU and
// allocation counters; two samples bracket an interval.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
	procCPU                     float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(ms[0]), totalCPU: val(ms[1]), allocBytes: val(ms[2]), procCPU: cpuSeconds()}
}

// runtimeMetrics derives the runtime layer's per-layer metrics over the
// interval between two samples.
func runtimeMetrics(a, b runtimeSample) map[string]float64 {
	return map[string]float64{
		"runtime.gc_cpu_frac": ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		"runtime.alloc_mb":    (b.allocBytes - a.allocBytes) / (1 << 20),
		"runtime.cpu_s":       b.procCPU - a.procCPU,
	}
}
