package core

import (
	"math"
	"math/rand"
	"testing"

	"ecmsketch/internal/window"
)

// exactOracle tracks exact per-item sliding-window frequencies for
// evaluation, mirroring what the paper's experiments compute from the raw
// trace.
type exactOracle struct {
	length Tick
	perKey map[uint64]*window.Exact
	total  *window.Exact
	now    Tick
}

func newExactOracle(length Tick) *exactOracle {
	tot, _ := window.NewExact(window.Config{Length: length})
	return &exactOracle{length: length, perKey: map[uint64]*window.Exact{}, total: tot}
}

func (o *exactOracle) add(key uint64, t Tick) {
	x, ok := o.perKey[key]
	if !ok {
		x, _ = window.NewExact(window.Config{Length: o.length})
		o.perKey[key] = x
	}
	x.Add(t)
	o.total.Add(t)
	if t > o.now {
		o.now = t
	}
}

func (o *exactOracle) freq(key uint64, r Tick) uint64 {
	x, ok := o.perKey[key]
	if !ok {
		return 0
	}
	x.Advance(o.now)
	return x.CountRange(r)
}

func (o *exactOracle) totalIn(r Tick) uint64 {
	o.total.Advance(o.now)
	return o.total.CountRange(r)
}

func (o *exactOracle) selfJoin(r Tick) float64 {
	var s float64
	for _, x := range o.perKey {
		x.Advance(o.now)
		f := float64(x.CountRange(r))
		s += f * f
	}
	return s
}

func mustECM(t *testing.T, p Params) *Sketch {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestSplitsSatisfyBounds(t *testing.T) {
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.2, 0.25, 0.5} {
		p := SplitPoint(eps)
		if !p.valid() {
			t.Errorf("SplitPoint(%v) invalid: %+v", eps, p)
		}
		if got := p.PointErrorBound(); math.Abs(got-eps) > 1e-9 {
			t.Errorf("SplitPoint(%v).PointErrorBound() = %v", eps, got)
		}
		ip := SplitInnerProduct(eps)
		if !ip.valid() {
			t.Errorf("SplitInnerProduct(%v) invalid: %+v", eps, ip)
		}
		if got := ip.InnerProductErrorBound(); math.Abs(got-eps) > 1e-9 {
			t.Errorf("SplitInnerProduct(%v).InnerProductErrorBound() = %v", eps, got)
		}
		rw := SplitPointRW(eps)
		if !rw.valid() {
			t.Errorf("SplitPointRW(%v) invalid: %+v", eps, rw)
		}
		if got := rw.PointErrorBound(); math.Abs(got-eps) > 1e-9 {
			t.Errorf("SplitPointRW(%v).PointErrorBound() = %v", eps, got)
		}
	}
}

func TestSplitRWFavorsWindowError(t *testing.T) {
	// Randomized waves pay 1/ε² for window error, so the RW-optimal split
	// must allocate a larger ε_sw than the deterministic-optimal split.
	for _, eps := range []float64{0.05, 0.1, 0.25} {
		det, rw := SplitPoint(eps), SplitPointRW(eps)
		if rw.EpsSW <= det.EpsSW {
			t.Errorf("eps=%v: RW split ε_sw=%v not larger than deterministic %v", eps, rw.EpsSW, det.EpsSW)
		}
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Params{
		{},
		{Epsilon: 0.1, Delta: 0.1},        // no window
		{WindowLength: 100, Delta: 0.1},   // no epsilon
		{WindowLength: 100, Epsilon: 0.1}, // no delta
		{WindowLength: 100, Epsilon: 2, Delta: 0.1}, // bad epsilon
		{WindowLength: 100, Epsilon: 0.1, Delta: 0.1, Split: &Split{EpsCM: 0, EpsSW: 0.1}},
		{WindowLength: 100, Epsilon: 0.1, Delta: 0.1, Algorithm: window.AlgoExact}, // ground truth, not an engine
		{WindowLength: 100, Epsilon: 0.1, Delta: 0.1, Algorithm: window.Algorithm(9)},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) succeeded, want error", p)
		}
	}
}

func TestECMPointQueryBound(t *testing.T) {
	const eps, delta = 0.1, 0.1
	const N = 2000
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW} {
		s := mustECM(t, Params{
			Epsilon: eps, Delta: delta, Algorithm: algo,
			WindowLength: N, UpperBound: 30000, Seed: 42,
		})
		oracle := newExactOracle(N)
		rng := rand.New(rand.NewSource(31))
		zipf := rand.NewZipf(rng, 1.1, 1, 2000)
		var now Tick
		for i := 0; i < 30000; i++ {
			now += Tick(rng.Intn(2))
			k := zipf.Uint64()
			s.Add(k, now)
			oracle.add(k, now)
		}
		s.Advance(now)
		for _, r := range []Tick{N, N / 2, N / 5} {
			l1 := float64(oracle.totalIn(r))
			for k := uint64(0); k < 50; k++ {
				got := s.Estimate(k, r)
				want := float64(oracle.freq(k, r))
				if got-want > eps*l1+1 {
					t.Errorf("%v: Estimate(%d,%d)=%v true=%v exceeds ε·||a_r||=%v",
						algo, k, r, got, want, eps*l1)
				}
				// The estimate may undershoot only by the window error:
				// fˆ ≥ (1-ε_sw)·f.
				if got < (1-s.EffectiveSplit().EpsSW)*want-1 {
					t.Errorf("%v: Estimate(%d,%d)=%v undershoots true %v beyond ε_sw", algo, k, r, got, want)
				}
			}
		}
	}
}

func TestECMRWPointQuery(t *testing.T) {
	const eps, delta = 0.25, 0.2
	const N = 1500
	s := mustECM(t, Params{
		Epsilon: eps, Delta: delta, Algorithm: window.AlgoRW,
		WindowLength: N, UpperBound: 20000, Seed: 17,
	})
	oracle := newExactOracle(N)
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 500)
	var now Tick
	for i := 0; i < 20000; i++ {
		now += Tick(rng.Intn(2))
		k := zipf.Uint64()
		s.Add(k, now)
		oracle.add(k, now)
	}
	s.Advance(now)
	l1 := float64(oracle.totalIn(N))
	bad := 0
	const checks = 40
	for k := uint64(0); k < checks; k++ {
		got := s.Estimate(k, N)
		want := float64(oracle.freq(k, N))
		if math.Abs(got-want) > eps*l1+1 {
			bad++
		}
	}
	if bad > checks/5 {
		t.Errorf("RW sketch exceeded bound on %d/%d point queries", bad, checks)
	}
}

func TestECMSelfJoin(t *testing.T) {
	const eps = 0.05
	const N = 2000
	s := mustECM(t, Params{
		Epsilon: eps, Delta: 0.05, Query: InnerProductQuery,
		WindowLength: N, Seed: 7,
	})
	oracle := newExactOracle(N)
	rng := rand.New(rand.NewSource(13))
	zipf := rand.NewZipf(rng, 1.3, 1, 300)
	var now Tick
	for i := 0; i < 25000; i++ {
		now += Tick(rng.Intn(2))
		k := zipf.Uint64()
		s.Add(k, now)
		oracle.add(k, now)
	}
	s.Advance(now)
	for _, r := range []Tick{N, N / 2} {
		got := s.SelfJoin(r)
		want := oracle.selfJoin(r)
		l1 := float64(oracle.totalIn(r))
		if math.Abs(got-want) > eps*l1*l1+1 {
			t.Errorf("SelfJoin(%d) = %v, true %v, bound %v", r, got, want, eps*l1*l1)
		}
	}
}

func TestECMInnerProduct(t *testing.T) {
	const eps = 0.1
	const N = 1000
	p := Params{Epsilon: eps, Delta: 0.1, Query: InnerProductQuery, WindowLength: N, Seed: 77}
	a := mustECM(t, p)
	b := mustECM(t, p)
	oa := newExactOracle(N)
	ob := newExactOracle(N)
	rng := rand.New(rand.NewSource(5))
	var now Tick
	for i := 0; i < 15000; i++ {
		now += Tick(rng.Intn(2))
		ka, kb := uint64(rng.Intn(100)), uint64(rng.Intn(100))
		a.Add(ka, now)
		b.Add(kb, now)
		oa.add(ka, now)
		ob.add(kb, now)
	}
	a.Advance(now)
	b.Advance(now)
	got, err := a.InnerProduct(b, N)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for k := uint64(0); k < 100; k++ {
		want += float64(oa.freq(k, N)) * float64(ob.freq(k, N))
	}
	la, lb := float64(oa.totalIn(N)), float64(ob.totalIn(N))
	if math.Abs(got-want) > eps*la*lb+1 {
		t.Errorf("InnerProduct = %v, true %v, bound %v", got, want, eps*la*lb)
	}
	// Incompatible sketches are rejected.
	other := mustECM(t, Params{Epsilon: eps, Delta: 0.1, WindowLength: N, Seed: 78})
	if _, err := a.InnerProduct(other, N); err == nil {
		t.Error("InnerProduct across different seeds succeeded")
	}
}

func TestECMEstimateTotal(t *testing.T) {
	const N = 1000
	s := mustECM(t, Params{Epsilon: 0.1, Delta: 0.1, WindowLength: N, Seed: 9})
	oracle := newExactOracle(N)
	rng := rand.New(rand.NewSource(71))
	var now Tick
	for i := 0; i < 10000; i++ {
		now += Tick(rng.Intn(2))
		k := uint64(rng.Intn(400))
		s.Add(k, now)
		oracle.add(k, now)
	}
	s.Advance(now)
	got := s.EstimateTotal(N)
	want := float64(oracle.totalIn(N))
	if math.Abs(got-want) > 0.15*want+1 {
		t.Errorf("EstimateTotal = %v, exact %v", got, want)
	}
}

func TestECMStringKeys(t *testing.T) {
	s := mustECM(t, Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 100, Seed: 4})
	for i := 0; i < 20; i++ {
		s.AddString("/index.html", Tick(i+1))
	}
	s.AddString("/other.html", 20)
	if got := s.EstimateString("/index.html", 100); got < 20 {
		t.Errorf("EstimateString = %v, want ≥ 20", got)
	}
}

func TestECMCountBasedWindow(t *testing.T) {
	// Count-based model: ticks are global arrival indexes; the window is
	// the last N arrivals of the whole stream.
	const N = 500
	s := mustECM(t, Params{
		Epsilon: 0.1, Delta: 0.1, Model: window.CountBased,
		WindowLength: N, Seed: 3,
	})
	// 1000 arrivals alternating between two keys: the last 500 arrivals
	// contain 250 of each.
	for seq := Tick(1); seq <= 1000; seq++ {
		s.Add(uint64(seq%2), seq)
	}
	for k := uint64(0); k < 2; k++ {
		got := s.Estimate(k, N)
		if math.Abs(got-250) > 0.15*250+1 {
			t.Errorf("count-based Estimate(%d) = %v, want ≈250", k, got)
		}
	}
}

func TestECMReset(t *testing.T) {
	s := mustECM(t, Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 100, Seed: 2})
	s.Add(1, 10)
	s.Reset()
	if s.EstimateWindow(1) != 0 || s.Count() != 0 || s.Now() != 0 {
		t.Error("Reset left state behind")
	}
}

func TestECMMemorySmallerForLargerEps(t *testing.T) {
	build := func(eps float64) int {
		s := mustECM(t, Params{Epsilon: eps, Delta: 0.1, WindowLength: 5000, Seed: 6})
		rng := rand.New(rand.NewSource(12))
		var now Tick
		for i := 0; i < 20000; i++ {
			now += Tick(rng.Intn(2))
			s.Add(uint64(rng.Intn(1000)), now)
		}
		return s.MemoryBytes()
	}
	if m5, m25 := build(0.05), build(0.25); m5 <= m25 {
		t.Errorf("memory(ε=0.05)=%d not larger than memory(ε=0.25)=%d", m5, m25)
	}
}

func TestECMDWAndEHCloseAgreement(t *testing.T) {
	// The two deterministic variants should produce similar estimates on the
	// same stream with the same split.
	p := Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1000, UpperBound: 10000, Seed: 19}
	pe := p
	pe.Algorithm = window.AlgoEH
	pd := p
	pd.Algorithm = window.AlgoDW
	eh := mustECM(t, pe)
	dw := mustECM(t, pd)
	rng := rand.New(rand.NewSource(8))
	var now Tick
	for i := 0; i < 10000; i++ {
		now += Tick(rng.Intn(2))
		k := uint64(rng.Intn(50))
		eh.Add(k, now)
		dw.Add(k, now)
	}
	eh.Advance(now)
	dw.Advance(now)
	for k := uint64(0); k < 50; k++ {
		ge, gd := eh.Estimate(k, 1000), dw.Estimate(k, 1000)
		if base := math.Max(ge, gd); base > 20 && math.Abs(ge-gd) > 0.3*base {
			t.Errorf("EH=%v DW=%v disagree for key %d", ge, gd, k)
		}
	}
}
