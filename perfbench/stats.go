package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample is a point-in-time read of the runtime counters the
// runtime.* per-layer metrics are differences of.
type runtimeSample struct {
	allocs uint64        // heap objects allocated
	gcCPU  float64       // CPU seconds spent in GC
	proc   time.Duration // process CPU time (getrusage)
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	rs := runtimeSample{proc: cpuTime()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		rs.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[1].Value.Float64()
	}
	return rs
}

// runtimeDelta turns two samples into allocations per request and the
// share of process CPU spent in the garbage collector.
func runtimeDelta(a, b runtimeSample, reqs int) (allocsPerReq, gcShare float64) {
	if reqs > 0 {
		allocsPerReq = float64(b.allocs-a.allocs) / float64(reqs)
	}
	if d := (b.proc - a.proc).Seconds(); d > 0 {
		gcShare = (b.gcCPU - a.gcCPU) / d
	}
	return allocsPerReq, gcShare
}
