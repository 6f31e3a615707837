package window

import (
	"math/rand"
	"testing"
)

func TestEstimateIntervalExactSmall(t *testing.T) {
	h := mustEH(t, Config{Length: 1000, Epsilon: 0.1})
	for i := Tick(1); i <= 10; i++ {
		h.Add(i * 10)
	}
	// (25, 65]: arrivals at 30,40,50,60.
	if got := h.EstimateInterval(25, 65); got != 4 {
		t.Errorf("EstimateInterval(25,65) = %v, want 4", got)
	}
	if got := h.EstimateInterval(65, 25); got != 0 {
		t.Errorf("inverted interval = %v, want 0", got)
	}
	if got := h.EstimateInterval(30, 30); got != 0 {
		t.Errorf("empty interval = %v, want 0", got)
	}
}

func TestEstimateIntervalErrorBound(t *testing.T) {
	const eps = 0.1
	cfg := Config{Length: 5000, Epsilon: eps, UpperBound: 20000, Delta: 0.1}
	rng := rand.New(rand.NewSource(33))
	for _, c := range append(subjects(t, AlgoEH, cfg), subjects(t, AlgoDW, cfg)...) {
		x := mustExact(t, cfg)
		var now Tick
		for i := 0; i < 20000; i++ {
			now += Tick(rng.Intn(2))
			c.Add(now)
			x.Add(now)
		}
		type iv interface{ EstimateInterval(from, to Tick) float64 }
		est := c.Counter.(iv)
		for trial := 0; trial < 200; trial++ {
			var ws Tick
			if now > cfg.Length {
				ws = now - cfg.Length
			}
			from := ws + Tick(rng.Intn(int(now-ws)))
			to := from + Tick(rng.Intn(int(now-from))+1)
			got := est.EstimateInterval(from, to)
			want := float64(x.CountInterval(from, to))
			// Two suffix estimates: 2ε of the larger suffix count.
			suffix := float64(x.CountSince(from))
			if abs64(got-want) > 2*eps*suffix+1 {
				t.Errorf("%v: EstimateInterval(%d,%d) = %v, exact %v (suffix %v)",
					c.name, from, to, got, want, suffix)
			}
		}
	}
}

func TestExactCountInterval(t *testing.T) {
	x := mustExact(t, Config{Length: 100})
	x.AddN(10, 2)
	x.AddN(20, 3)
	x.AddN(30, 4)
	if got := x.CountInterval(10, 30); got != 7 {
		t.Errorf("CountInterval(10,30) = %d, want 7", got)
	}
	if got := x.CountInterval(30, 10); got != 0 {
		t.Errorf("inverted = %d", got)
	}
}
