package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler reads the resident set size every rssEvery from the start of
// a run's measured part until meanMB. rss_mb is the mean of the samples:
// a workload that allocates gigabytes per second (fig10-digits runs over a
// thousand GC cycles per call) has a peak set by whichever cycle overshot
// most, while its mean is steady.
type rssSampler struct {
	stop, done chan struct{}
	sumMB      float64
	n          int
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				s.sumMB += mb
				s.n++
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// meanMB stops the sampler, waits for it, and returns the mean RSS.
func (s *rssSampler) meanMB() float64 {
	close(s.stop)
	<-s.done
	if s.n == 0 {
		return 0
	}
	return s.sumMB / float64(s.n)
}

// residentMB reads the current resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, strconv.ErrSyntax
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}

// peakRSSMB is the process's peak resident set size, set-up included.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
