package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// ballast is live heap that does nothing but set the garbage collector's
// pace. A join or a rollout that builds an IDS engine allocates megabytes, and
// how often the collector runs meanwhile depends on how much live heap the
// process happens to hold: with only the benchmark's own buffers that share
// swung join_ms_p50 on inspect-hw-echo between 12 and 25 ms as unrelated
// buffers changed size. The ballast makes the pace one collection per 128 MB
// allocated, whatever else the benchmark keeps. It is never touched, so it
// costs address space, not memory.
var ballast = make([]byte, 128<<20)

// quantile returns the q-quantile (0..1) of values by the nearest-rank
// method; it sorts values in place and returns 0 for an empty slice.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	i := int(math.Ceil(q*float64(len(values)))) - 1
	if i < 0 {
		i = 0
	}
	return values[i]
}

// median sorts values in place; an even count gives the mean of the middle
// two.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	return (values[(len(values)-1)/2] + values[len(values)/2]) / 2
}

// processCPU is the CPU time the process has used so far, user plus system.
// It counts work on every core and no time spent waiting, so a figure built
// on it survives a busy neighbour on a shared host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAllocs is the cumulative number of heap objects allocated, read
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// timed calls fn in growing batches for at least minDur and reports the
// mean wall time and heap allocations per call.
func timed(minDur time.Duration, fn func()) (nsPerCall, allocsPerCall float64, calls int) {
	fn() // warm caches and lazy set-up outside the measurement
	batch := 1
	var total time.Duration
	var allocs uint64
	for total < minDur {
		a0 := heapAllocs()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		total += time.Since(t0)
		allocs += heapAllocs() - a0
		calls += batch
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return float64(total.Nanoseconds()) / float64(calls), float64(allocs) / float64(calls), calls
}
