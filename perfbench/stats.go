package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule). xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// tailP is the highest percentile, at most p99, that leaves at least ten
// of n samples beyond it. With fewer than 20 samples it is the median.
func tailP(n int) float64 {
	p := 1 - 10/float64(n)
	if p > 0.99 {
		p = 0.99
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

// rtStats is a reading of the Go runtime's own counters.
type rtStats struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{
		allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

// putRT reports the runtime's allocation and GC work between two readings
// as the go.* per-layer metrics.
func (r *run) putRT(a, b rtStats) {
	r.put("go.alloc_mb", "MB", float64(b.allocBytes-a.allocBytes)/(1<<20))
	r.put("go.num_gc", "count", float64(b.gcCycles-a.gcCycles))
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		r.put("go.gc_cpu_frac", "ratio", (b.gcCPU-a.gcCPU)/cpu)
	}
}

// hostClock times an operation and the share of the guest's CPU time the
// hypervisor stole meanwhile ("steal" in /proc/stat). On a shared virtual
// host that share swings between runs — 14–31% over fourteen identical
// 2000-device fleets on the 2-core reference host — and stretches wall
// time by as much, while the CPU time the program used stays within a few
// percent. A CPU-bound operation's unstolen time, wall × (1 − steal
// share), is the wall time it takes on a host that does not steal.
type hostClock struct {
	start        time.Time
	steal, total float64
}

func startHostClock() hostClock {
	steal, total := readSteal()
	return hostClock{start: time.Now(), steal: steal, total: total}
}

// stop returns the wall time and the unstolen wall time, in seconds.
func (c hostClock) stop() (wall, unstolen float64) {
	wall = time.Since(c.start).Seconds()
	steal, total := readSteal()
	if total <= c.total {
		return wall, wall
	}
	return wall, wall * (1 - (steal-c.steal)/(total-c.total))
}

// cpuClock times an operation by the process's own CPU time, user and
// system. For a process that runs Go code on one thread at a time
// (GOMAXPROCS 1) and never blocks, that is the time the operation spent
// on a CPU: the time stolen from it is left out, on whichever vCPU it ran,
// with no steal share to estimate. fig10-digits runs that way.
type cpuClock struct {
	start time.Time
	cpu   float64
}

func startCPUClock() cpuClock { return cpuClock{start: time.Now(), cpu: cpuSeconds()} }

// stop returns the wall time and the CPU time, in seconds.
func (c cpuClock) stop() (wall, cpu float64) {
	return time.Since(c.start).Seconds(), cpuSeconds() - c.cpu
}

// cpuSeconds returns the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// readSteal returns the guest's stolen and total CPU time over all CPUs,
// in clock ticks; zeros where /proc/stat is unreadable.
func readSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
	}
	steal, _ = strconv.ParseFloat(f[8], 64)
	return steal, total
}
