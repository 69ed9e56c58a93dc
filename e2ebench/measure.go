package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// opSample is one timed operation.
type opSample struct {
	wall, cpu time.Duration
	allocs    uint64
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measure times one operation: wall clock, process CPU and heap
// allocations. The allocation reads stop the world, so they sit outside
// the wall-clock window.
func measure(op func() error) (opSample, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	c0 := cpuTime()
	t0 := time.Now()
	err := op()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&ms)
	return opSample{wall: wall, cpu: c1 - c0, allocs: ms.Mallocs - m0}, err
}

// setups is how many times a run repeats its set-up; setup_s is the median.
const setups = 5

// timeSetups runs the workload's set-up n times and returns the median
// duration in seconds. The first set-up is timed from process start; the
// last one leaves the state the timed operations run on.
func timeSetups(n int, setup func() error) (float64, error) {
	ds := make([]float64, 0, n)
	start := procStart
	for i := 0; i < n; i++ {
		if i > 0 {
			start = time.Now()
		}
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// endToEnd appends the end-to-end metrics of the untraced samples.
// renegMs holds the wall times of the operations that negotiated.
func endToEnd(rep *report, setupS float64, samples []opSample, customers int, renegMs []float64) {
	var wall []float64
	var cpu time.Duration
	var allocs uint64
	for _, s := range samples {
		wall = append(wall, ms(s.wall))
		cpu += s.cpu
		allocs += s.allocs
	}
	n := float64(len(samples))
	rep.add("setup_s", "s", setupS)
	rep.add("op_ms_p50", "ms", median(wall))
	rep.add("cpu_ms_per_op", "ms", ms(cpu)/n)
	rep.add("allocs_per_customer", "count", float64(allocs)/(n*float64(customers)))
	rep.add("peak_rss_mb", "MB", peakRSSMB())
	rep.add("reneg_ms_p50", "ms", median(renegMs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// roundClock paces a run in whole rounds: the first round always runs, and
// a later one starts only if, at the pace of the round before it, it ends
// within the run length.
type roundClock struct {
	start, roundStart time.Time
	limit             time.Duration
	rounds            int
}

func newRoundClock(seconds float64) *roundClock {
	return &roundClock{start: time.Now(), limit: time.Duration(seconds * float64(time.Second))}
}

func (c *roundClock) next() bool {
	now := time.Now()
	if c.rounds > 0 && now.Sub(c.start)+now.Sub(c.roundStart) > c.limit {
		return false
	}
	c.roundStart = now
	c.rounds++
	return true
}
