package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty slice must have no quantile")
	}
	odd := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(odd, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", odd, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("median of two = %v, want their midpoint", got)
	}
	if got := median(samples{3, 1}, samples{2}); got != 2 {
		t.Errorf("median across parts = %v, want 2", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailQuantileNeedsSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{99, 0.9, false}, {100, 0.9, true},
		{19, 0.5, false}, {20, 0.5, true},
		{0, 0.99, false},
	} {
		v, ok := tailQuantile(ramp(c.n), c.q)
		if ok != c.ok {
			t.Errorf("n=%d q=%v: reported=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if !ok && v != 0 {
			t.Errorf("n=%d q=%v: an unreported percentile must read 0, got %v", c.n, c.q, v)
		}
	}
	if v, _ := tailQuantile(ramp(1001), 0.99); v != 990 {
		t.Errorf("p99 of 0..1000 = %v, want 990", v)
	}
}

// An open loop's schedule does not slip when a send is late, and lateness
// is never negative.
func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	interval := 10 * time.Millisecond
	if got := openLoopDue(start, interval, 7).Sub(start); got != 70*time.Millisecond {
		t.Fatalf("7th send due %v after start, want 70ms", got)
	}
	// Send 3 stalls for 25 ms; sends 4 and 5 were due during the stall and
	// go out at once when it ends, send 6 is back on schedule.
	stallEnd := openLoopDue(start, interval, 3).Add(25 * time.Millisecond)
	want := map[int]time.Duration{4: 15 * time.Millisecond, 5: 5 * time.Millisecond, 6: 0}
	for i, w := range want {
		due := openLoopDue(start, interval, i)
		sent := stallEnd
		if due.After(sent) {
			sent = due
		}
		if got := lateness(due, sent); got != w {
			t.Errorf("send %d: lateness %v, want %v", i, got, w)
		}
	}
	if got := lateness(start.Add(time.Second), start); got != 0 {
		t.Errorf("an early send is %v late, want 0", got)
	}
}

func TestRateCounterReportsMedianSecond(t *testing.T) {
	start := time.Unix(1000, 0)
	rc := newRateCounter(start, 5*time.Second)
	for sec, n := range []int{100, 100, 10, 100, 100} { // one stalled second
		rc.add(n, start.Add(time.Duration(sec)*time.Second+time.Millisecond))
	}
	rc.add(40, start.Add(5*time.Second+time.Millisecond)) // the partial last second is not a sample
	rate, bins := rc.perSecond(5*time.Second + 300*time.Millisecond)
	if rate != 100 || bins != 5 {
		t.Errorf("perSecond = %v over %d bins, want 100 over 5", rate, bins)
	}
	if rc.total() != 450 {
		t.Errorf("total = %d, want 450", rc.total())
	}
	short := newRateCounter(start, time.Second/2)
	short.add(50, start.Add(100*time.Millisecond))
	if rate, _ := short.perSecond(time.Second / 2); rate != 100 {
		t.Errorf("a half-second phase of 50 completions rates %v, want 100", rate)
	}
}
