package core

import (
	"math"
	"testing"

	"ecmsketch/internal/window"
)

func TestQueryKindString(t *testing.T) {
	if PointQuery.String() != "point" || InnerProductQuery.String() != "inner-product" {
		t.Error("QueryKind.String mismatch")
	}
	if QueryKind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestNaiveSplit(t *testing.T) {
	s := NaiveSplit(0.1)
	if !s.valid() {
		t.Fatalf("NaiveSplit invalid: %+v", s)
	}
	if math.Abs(s.PointErrorBound()-0.1) > 1e-9 {
		t.Errorf("NaiveSplit point bound %v", s.PointErrorBound())
	}
	// For inner products, the naive split does NOT satisfy the Theorem 2
	// budget — that gap is what SplitInnerProduct exists for.
	if s.InnerProductErrorBound() <= 0.1 {
		t.Errorf("naive split unexpectedly meets the inner-product bound: %v",
			s.InnerProductErrorBound())
	}
}

func TestParamsAccessorAndSalt(t *testing.T) {
	p := Params{Epsilon: 0.2, Delta: 0.2, WindowLength: 100, Seed: 3}
	s := mustECM(t, p)
	if got := s.Params(); got.Epsilon != 0.2 || got.WindowLength != 100 {
		t.Errorf("Params() = %+v", got)
	}
	s.SetIDSalt(42) // deterministic RW identifiers for multi-process setups
	if s.salt != 42 {
		t.Errorf("salt = %d", s.salt)
	}
}

func TestExtractVectorMass(t *testing.T) {
	s := mustECM(t, Params{Epsilon: 0.2, Delta: 0.2, WindowLength: 1000, Seed: 8})
	for i := Tick(1); i <= 50; i++ {
		s.Add(7, i)
	}
	v := s.ExtractVector(1000)
	if v.D != s.Depth() || v.W != s.Width() {
		t.Fatalf("vector shape %dx%d, sketch %dx%d", v.D, v.W, s.Depth(), s.Width())
	}
	// Every row holds the full 50 arrivals (one loaded cell per row).
	for j := 0; j < v.D; j++ {
		var row float64
		for i := 0; i < v.W; i++ {
			row += v.Cells[j*v.W+i]
		}
		if row != 50 {
			t.Errorf("row %d mass = %v, want 50", j, row)
		}
	}
	// Default-algorithm sketches run on the flat EH arena.
	if s.eh == nil {
		t.Error("EH sketch is not using the flat engine")
	}
}

func TestMergeErrorPaths(t *testing.T) {
	p := Params{Epsilon: 0.2, Delta: 0.2, WindowLength: 100, Seed: 1}
	a := mustECM(t, p)
	if _, err := Merge(a, nil); err == nil {
		t.Error("nil input accepted")
	}
	// New rejects every algorithm Merge cannot aggregate, so the only
	// algorithm error left to Merge is a mismatch between its inputs.
	pd := p
	pd.Algorithm = window.AlgoDW
	d := mustECM(t, pd)
	if _, err := Merge(a, d); err == nil {
		t.Error("algorithm mismatch accepted")
	}
	// DW sketches merge fine on their own.
	d2 := mustECM(t, pd)
	d.Add(1, 1)
	d2.Add(1, 1)
	m, err := Merge(d, d2)
	if err != nil {
		t.Fatalf("DW merge: %v", err)
	}
	if got := m.Estimate(1, 100); got != 2 {
		t.Errorf("merged DW estimate = %v, want 2", got)
	}
}
