package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ecmsketch/internal/window"
)

// viewTestSketch builds a sketch of the given algorithm fed past one window,
// so expiry is active, and settles it at its own clock the way a published
// view is.
func viewTestSketch(t *testing.T, algo window.Algorithm) *Sketch {
	t.Helper()
	p := Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 4096, Seed: 5, Algorithm: algo}
	if algo == window.AlgoDW || algo == window.AlgoRW {
		p.UpperBound = 1 << 16
	}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(17)), 1.2, 1, 1<<12)
	batch := make([]Event, 0, 256)
	for tick := Tick(1); tick <= 6000; tick++ {
		batch = append(batch, Event{Key: zipf.Uint64(), Tick: tick, N: 1 + uint64(tick%3)})
		if len(batch) == cap(batch) {
			s.AddBatch(batch)
			batch = batch[:0]
		}
	}
	s.AddBatch(batch)
	s.Advance(s.Now())
	return s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSelfJoinMatchesQueryBatch pins SelfJoin to QueryBatch's SelfJoin-only
// and joint Total+SelfJoin answers, bit for bit, and InnerProduct of two
// distinct sketches to the two-sided formula over their counter vectors.
func TestSelfJoinMatchesQueryBatch(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(fmt.Sprint(algo), func(t *testing.T) {
			s := viewTestSketch(t, algo)
			other, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			other.Add(42, other.Now())
			W := s.wcfg.Length
			for _, r := range []Tick{1, W / 3, W / 2, W, 2 * W} {
				f2 := s.SelfJoin(r)
				only, _ := s.QueryBatch(QueryBatch{Range: r, SelfJoin: true})
				both, _ := s.QueryBatch(QueryBatch{Range: r, Total: true, SelfJoin: true})
				if !sameBits(f2, only.SelfJoin) || !sameBits(f2, both.SelfJoin) {
					t.Errorf("r=%d: SelfJoin %v, QueryBatch{SelfJoin} %v, QueryBatch{Total, SelfJoin} %v", r, f2, only.SelfJoin, both.SelfJoin)
				}
				if f2 <= 0 {
					t.Errorf("r=%d: SelfJoin = %v on a populated sketch", r, f2)
				}
				a, b := s.ExtractVector(r), other.ExtractVector(r)
				want := math.Inf(1)
				for j := 0; j < s.d; j++ {
					var sum float64
					for i := j * s.w; i < (j+1)*s.w; i++ {
						if a[i] != 0 {
							sum += a[i] * b[i]
						}
					}
					want = min(want, sum)
				}
				if got, err := s.InnerProduct(other, r); err != nil || !sameBits(got, want) {
					t.Errorf("r=%d: InnerProduct of distinct sketches = %v (%v), want %v", r, got, err, want)
				}
			}
		})
	}
}

// TestViewAggregatesOnce is the stampede test of the aggregate memo: eight
// readers asking a freshly published view for the same range read the same
// bits — the sketch's own — and the sweep runs once. However many distinct
// ranges it is then asked for, the memo keeps only the newest.
func TestViewAggregatesOnce(t *testing.T) {
	s := viewTestSketch(t, window.AlgoEH)
	W := s.wcfg.Length
	v := NewView(s)

	const readers = 8
	r := W / 2
	totals := make([]float64, readers)
	f2s := make([]float64, readers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			res, err := v.QueryBatch(QueryBatch{Keys: []uint64{1, 2}, Range: r, Total: true, SelfJoin: true})
			if err != nil {
				t.Error(err)
				return
			}
			totals[g], f2s[g] = res.Total, res.SelfJoin
		}(g)
	}
	close(start)
	wg.Wait()
	wantTotal, wantF2 := s.totalAndSelfJoin(r)
	for g := range totals {
		if !sameBits(totals[g], wantTotal) || !sameBits(f2s[g], wantF2) {
			t.Errorf("reader %d read (%v, %v), want (%v, %v)", g, totals[g], f2s[g], wantTotal, wantF2)
		}
	}
	if got := v.sweeps.Load(); got != 1 {
		t.Fatalf("%d readers of one range ran %d sweeps, want 1", readers, got)
	}

	// Past the window a range is keyed as the window; 0 is its own range.
	if got, want := v.EstimateTotal(2*W), s.EstimateTotal(W); !sameBits(got, want) {
		t.Errorf("EstimateTotal(2W) = %v, want %v", got, want)
	}
	if got := v.SelfJoin(W); v.sweeps.Load() != 2 || !sameBits(got, s.SelfJoin(W)) {
		t.Errorf("SelfJoin(W) after EstimateTotal(2W): %v after %d sweeps, want a hit", got, v.sweeps.Load())
	}
	if got := v.EstimateTotal(0); got != 0 {
		t.Errorf("EstimateTotal(0) = %v, want 0", got)
	}

	// The memo holds one range: each new range sweeps, a repeat of the
	// newest hits, and any older range sweeps again.
	before := v.sweeps.Load()
	for i := Tick(1); i <= 1000; i++ {
		v.SelfJoin(i)
	}
	if got := v.sweeps.Load() - before; got != 1000 {
		t.Fatalf("1000 distinct ranges ran %d sweeps", got)
	}
	before = v.sweeps.Load()
	if got := v.SelfJoin(1000); !sameBits(got, s.SelfJoin(1000)) || v.sweeps.Load() != before {
		t.Fatalf("newest range: SelfJoin = %v after %d sweeps, want %v from the memo", got, v.sweeps.Load()-before, s.SelfJoin(1000))
	}
	if got := v.SelfJoin(999); !sameBits(got, s.SelfJoin(999)) || v.sweeps.Load() != before+1 {
		t.Fatalf("replaced range: SelfJoin = %v after %d sweeps, want %v from one sweep", got, v.sweeps.Load()-before, s.SelfJoin(999))
	}

	// Readers of different ranges replace each other's entry, sweeps in
	// flight included; each still reads its own range's bits.
	ranges := []Tick{W / 4, W / 2, W}
	want := make([]float64, len(ranges))
	for i, r := range ranges {
		want[i] = s.SelfJoin(r)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(ranges)
				if got := v.SelfJoin(ranges[i]); !sameBits(got, want[i]) {
					t.Errorf("reader %d: SelfJoin(%d) = %v, want %v", g, ranges[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
