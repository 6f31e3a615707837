package main

import (
	"math"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: a p99 taken from fewer than a thousand samples is one or two
// outliers, not a percentile.
const minBeyond = 10

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between the two nearest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// tailQuantile is quantile with the reporting rule applied: ok is false,
// and the value must not be reported, unless at least minBeyond samples lie
// beyond the percentile.
func tailQuantile(sorted []float64, q float64) (v float64, ok bool) {
	// q·n is nudged down before rounding up so that 0.9·100 counts as 90.
	beyond := len(sorted) - int(math.Ceil(q*float64(len(sorted))-1e-9))
	if beyond < minBeyond {
		return 0, false
	}
	return quantile(sorted, q), true
}

// samples collects one goroutine's timings; merge before reading.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)) }

func merged(parts ...samples) []float64 {
	var all []float64
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Float64s(all)
	return all
}

func median(parts ...samples) float64 { return quantile(merged(parts...), 0.5) }

func total(parts ...samples) (sum float64, n int) {
	for _, p := range parts {
		for _, v := range p {
			sum += v
		}
		n += len(p)
	}
	return sum, n
}

func mean(parts ...samples) float64 {
	sum, n := total(parts...)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// rateCounter counts completions into one-second bins from several
// goroutines, so throughput is reported as the median bin: a stall or a
// checkpoint lowers one bin, not the figure.
type rateCounter struct {
	start time.Time
	bins  []atomic.Int64
}

func newRateCounter(start time.Time, d time.Duration) *rateCounter {
	return &rateCounter{start: start, bins: make([]atomic.Int64, int(d/time.Second)+2)}
}

func (rc *rateCounter) add(n int, at time.Time) {
	if i := int(at.Sub(rc.start) / time.Second); i >= 0 && i < len(rc.bins) {
		rc.bins[i].Add(int64(n))
	}
}

// perSecond is the median count over the whole seconds of a phase that
// lasted d; a phase shorter than a second reports its mean rate.
func (rc *rateCounter) perSecond(d time.Duration) (rate float64, bins int) {
	whole := int(d / time.Second)
	if whole > len(rc.bins) {
		whole = len(rc.bins)
	}
	if whole == 0 {
		return float64(rc.total()) / d.Seconds(), 1
	}
	counts := make([]float64, whole)
	for i := range counts {
		counts[i] = float64(rc.bins[i].Load())
	}
	sort.Float64s(counts)
	return quantile(counts, 0.5), whole
}

func (rc *rateCounter) total() int64 {
	var t int64
	for i := range rc.bins {
		t += rc.bins[i].Load()
	}
	return t
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// lateness is how far behind its schedule an open-loop sender ran: zero
// when the send happened at or before its due time.
func lateness(due, sent time.Time) time.Duration {
	if sent.After(due) {
		return sent.Sub(due)
	}
	return 0
}

// openLoopDue is the due time of the i-th send of an open loop that started
// at start and sends every interval, whatever happened to earlier sends.
func openLoopDue(start time.Time, interval time.Duration, i int) time.Time {
	return start.Add(time.Duration(i) * interval)
}
