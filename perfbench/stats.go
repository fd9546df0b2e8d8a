package main

import (
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks. It returns NaN for an empty sample, which the run
// refuses to report.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianCall runs fn at least minReps times and for at least budget of
// wall time, and returns the median duration of one call. A fn that
// fails stops the measurement.
func medianCall(minReps int, budget time.Duration, fn func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// processCPU returns the CPU time (user and system) the process has used
// so far. On a virtual machine it excludes time the host stole, which is
// what makes CPU cost steadier than wall time on a shared host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocated returns the bytes the process has allocated on the heap
// so far.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// cpuStat is the machine's cumulative CPU accounting from /proc/stat, in
// clock ticks: time spent running anything, and time a hypervisor
// stole from the virtual CPUs while they had work.
type cpuStat struct{ busy, steal uint64 }

// readCPUStat returns the current counters, or zeros where /proc/stat is
// missing (the steal share is then 0 and nothing is scaled).
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var n [8]uint64
	for i := range n {
		n[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuStat{busy: n[0] + n[1] + n[2] + n[5] + n[6], steal: n[7]}
}

// stolenShare returns the share of the machine's running time between a
// and b that the host stole: on a shared virtual machine, work that
// needed a second took 1/(1-share) seconds of wall time. The counters
// move in clock ticks (10 ms per CPU), so the share resolves only over
// intervals that span many ticks; ticks tells how many.
func stolenShare(a, b cpuStat) float64 {
	busy, steal := float64(b.busy-a.busy), float64(b.steal-a.steal)
	if busy+steal == 0 {
		return 0
	}
	return steal / (busy + steal)
}

// ticks returns the clock ticks of running and stolen time between a and
// b, the resolution stolenShare has over that interval.
func ticks(a, b cpuStat) uint64 { return b.busy - a.busy + b.steal - a.steal }
