package cm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecmsketch/internal/hashing"
)

func mustSketch(t *testing.T, p Params) *Sketch {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestParamsDerivation(t *testing.T) {
	s := mustSketch(t, Params{Epsilon: 0.1, Delta: 0.05})
	if want := int(math.Ceil(math.E / 0.1)); s.Width() != want {
		t.Errorf("Width = %d, want %d", s.Width(), want)
	}
	if want := int(math.Ceil(math.Log(20.0))); s.Depth() != want {
		t.Errorf("Depth = %d, want %d", s.Depth(), want)
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{},
		{Epsilon: 0.1},
		{Delta: 0.1},
		{Epsilon: 2, Delta: 0.1},
		{Epsilon: 0.1, Delta: 2},
		{Width: -3, Depth: 4},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) succeeded, want error", p)
		}
	}
	// Explicit dimensions need no accuracy parameters.
	if _, err := New(Params{Width: 100, Depth: 4}); err != nil {
		t.Errorf("New with explicit dimensions: %v", err)
	}
}

func TestNeverUnderestimates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := mustSketch(t, Params{Epsilon: 0.05, Delta: 0.01, Seed: 11})
	truth := map[uint64]uint64{}
	for i := 0; i < 50000; i++ {
		k := uint64(rng.Intn(5000))
		s.Add(k, 1)
		truth[k]++
	}
	for k, want := range truth {
		if got := s.Estimate(k); got < want {
			t.Fatalf("Estimate(%d) = %d < true %d; Count-Min must never underestimate", k, got, want)
		}
	}
}

func TestPointQueryErrorBound(t *testing.T) {
	const eps, delta = 0.01, 0.01
	rng := rand.New(rand.NewSource(3))
	s := mustSketch(t, Params{Epsilon: eps, Delta: delta, Seed: 5})
	truth := map[uint64]uint64{}
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
	const n = 200000
	for i := 0; i < n; i++ {
		k := zipf.Uint64()
		s.Add(k, 1)
		truth[k]++
	}
	bad := 0
	for k, want := range truth {
		if float64(s.Estimate(k)-want) > eps*float64(n) {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(truth)); frac > delta*5 {
		t.Errorf("%.2f%% of estimates exceed ε·n, want ≲ δ", 100*frac)
	}
}

func TestLinearity(t *testing.T) {
	// sketch(a) + sketch(b) == sketch(a ++ b), cell for cell.
	p := Params{Epsilon: 0.1, Delta: 0.1, Seed: 7}
	a := mustSketch(t, p)
	b := mustSketch(t, p)
	ab := mustSketch(t, p)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Intn(500))
		v := uint64(rng.Intn(5) + 1)
		if i%2 == 0 {
			a.Add(k, v)
		} else {
			b.Add(k, v)
		}
		ab.Add(k, v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	for j := 0; j < a.Depth(); j++ {
		for i := 0; i < a.Width(); i++ {
			if a.Cell(j, i) != ab.Cell(j, i) {
				t.Fatalf("cell (%d,%d): merged=%d direct=%d", j, i, a.Cell(j, i), ab.Cell(j, i))
			}
		}
	}
	if a.Count() != ab.Count() {
		t.Errorf("Count merged=%d direct=%d", a.Count(), ab.Count())
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := mustSketch(t, Params{Epsilon: 0.1, Delta: 0.1, Seed: 1})
	b := mustSketch(t, Params{Epsilon: 0.1, Delta: 0.1, Seed: 2})
	if err := a.Merge(b); err == nil {
		t.Fatal("Merge of different seeds succeeded")
	}
	c := mustSketch(t, Params{Epsilon: 0.2, Delta: 0.1, Seed: 1})
	if err := a.Merge(c); err == nil {
		t.Fatal("Merge of different widths succeeded")
	}
	if _, err := a.InnerProduct(b); err == nil {
		t.Fatal("InnerProduct of different seeds succeeded")
	}
}

func TestInnerProductAccuracy(t *testing.T) {
	const eps = 0.02
	p := Params{Epsilon: eps, Delta: 0.01, Seed: 9}
	a := mustSketch(t, p)
	b := mustSketch(t, p)
	fa := map[uint64]uint64{}
	fb := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 30000; i++ {
		ka, kb := uint64(rng.Intn(300)), uint64(rng.Intn(300))
		a.Add(ka, 1)
		b.Add(kb, 1)
		fa[ka]++
		fb[kb]++
	}
	var want float64
	for k, va := range fa {
		want += float64(va) * float64(fb[k])
	}
	got, err := a.InnerProduct(b)
	if err != nil {
		t.Fatal(err)
	}
	if float64(got) < want {
		t.Errorf("InnerProduct = %d < true %v; must not underestimate", got, want)
	}
	bound := eps * float64(a.Count()) * float64(b.Count())
	if float64(got)-want > bound {
		t.Errorf("InnerProduct error %v exceeds ε·||a||·||b|| = %v", float64(got)-want, bound)
	}
}

func TestSelfJoin(t *testing.T) {
	s := mustSketch(t, Params{Epsilon: 0.01, Delta: 0.01, Seed: 13})
	// 10 items × frequency 100 → F₂ = 10·100² = 100000.
	for k := uint64(0); k < 10; k++ {
		s.Add(k, 100)
	}
	got := s.SelfJoin()
	if got < 100000 {
		t.Errorf("SelfJoin = %d, want ≥ 100000", got)
	}
	if float64(got) > 100000+0.01*1000*1000 {
		t.Errorf("SelfJoin = %d, exceeds bound", got)
	}
}

func TestResetAndMemory(t *testing.T) {
	s := mustSketch(t, Params{Epsilon: 0.1, Delta: 0.1})
	s.Add(1, 5)
	s.Reset()
	if s.Estimate(1) != 0 || s.Count() != 0 {
		t.Error("Reset left state behind")
	}
	if mb := s.MemoryBytes(); mb < 8*s.Width()*s.Depth() {
		t.Errorf("MemoryBytes = %d, smaller than the cell array", mb)
	}
}

func TestQuickEstimateUpperBound(t *testing.T) {
	// Property: for any input multiset, estimate ≥ truth.
	prop := func(keys []uint16) bool {
		s, err := New(Params{Width: 32, Depth: 3, Seed: 99})
		if err != nil {
			return false
		}
		truth := map[uint64]uint64{}
		for _, k := range keys {
			s.Add(uint64(k), 1)
			truth[uint64(k)]++
		}
		for k, want := range truth {
			if s.Estimate(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	v := NewVector(2, 3)
	copy(v.Cells, []float64{1, 2, 3, 4, 5, 6})
	o := v.Clone()
	if got := v.Dist(o); got != 0 {
		t.Errorf("Dist to clone = %v", got)
	}
	o.Scale(2)
	if o.Cells[0] != 2 || v.Cells[0] != 1 {
		t.Error("Scale affected the wrong vector")
	}
	o.Sub(v)
	if o.Cells[5] != 6 {
		t.Errorf("Sub: got %v, want 6", o.Cells[5])
	}
	if got, want := v.Norm(), math.Sqrt(91); math.Abs(got-want) > 1e-12 {
		t.Errorf("Norm = %v, want %v", got, want)
	}
	// SelfJoin of the vector: min over rows of Σ cells².
	// Row 0: 1+4+9=14, row 1: 16+25+36=77 → 14.
	if got := v.SelfJoin(); got != 14 {
		t.Errorf("SelfJoin = %v, want 14", got)
	}
}

func TestVectorMarshalRoundTrip(t *testing.T) {
	v := NewVector(3, 5)
	for i := range v.Cells {
		v.Cells[i] = float64(i) * 1.5
	}
	// The package has no decoder (nothing in the tree receives a vector);
	// read the layout back by hand: d, w, then 8 bytes per cell.
	enc := v.Marshal()
	if len(enc) != 8+8*len(v.Cells) {
		t.Fatalf("encoding is %d bytes, want %d", len(enc), 8+8*len(v.Cells))
	}
	if d, w := binary.LittleEndian.Uint32(enc[0:]), binary.LittleEndian.Uint32(enc[4:]); d != 3 || w != 5 {
		t.Fatalf("encoded dimensions %dx%d, want 3x5", d, w)
	}
	for i, c := range v.Cells {
		if got := math.Float64frombits(binary.LittleEndian.Uint64(enc[8+8*i:])); got != c {
			t.Fatalf("cell %d changed across round trip: %v, want %v", i, got, c)
		}
	}
}

func TestHashFamilyDeterminism(t *testing.T) {
	f1, err := hashing.NewFamily(42, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := hashing.NewFamily(42, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		for k := uint64(0); k < 1000; k++ {
			if f1.Hash(j, k) != f2.Hash(j, k) {
				t.Fatalf("families from equal seeds disagree at (%d,%d)", j, k)
			}
		}
	}
}
