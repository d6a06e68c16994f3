package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median averages the two middle samples of an even-sized set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

var pageMB = float64(os.Getpagesize()) / (1 << 20)

// rssMB reads the process's resident set size from /proc/self/statm, whose
// second field is the resident page count.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * pageMB
}

// rssPeaks samples the resident set size every 2 ms and keeps the peak
// seen since the last take. A run reports the peak of each pass or loop
// rather than the process-wide high-water mark, which also holds set-up and
// swings with where garbage collections happen to fall.
type rssPeaks struct {
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done chan struct{}
}

func sampleRSS() *rssPeaks {
	r := &rssPeaks{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				mb := rssMB()
				r.mu.Lock()
				r.peak = max(r.peak, mb)
				r.mu.Unlock()
			}
		}
	}()
	return r
}

// take returns the peak since the last take (or the start) and resets it to
// the current resident set size.
func (r *rssPeaks) take() float64 {
	now := rssMB()
	r.mu.Lock()
	defer r.mu.Unlock()
	peak := max(r.peak, now)
	r.peak = now
	return peak
}

// close stops the sampler and waits for it to exit.
func (r *rssPeaks) close() {
	close(r.stop)
	<-r.done
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
