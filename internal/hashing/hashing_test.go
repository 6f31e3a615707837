package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewPairwiseFuncValidation(t *testing.T) {
	if _, err := NewPairwiseFunc(1, 0, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewPairwiseFunc(1, 0, -5); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := NewPairwiseFunc(1, 0, 1<<32); err == nil {
		t.Error("oversized width accepted")
	}
}

func TestHashInRange(t *testing.T) {
	prop := func(seed, key uint64, wRaw uint16) bool {
		w := int(wRaw%1000) + 1
		f, err := NewPairwiseFunc(seed, 3, w)
		if err != nil {
			return false
		}
		h := f.Hash(key)
		return h >= 0 && h < w
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDeterministic(t *testing.T) {
	f1, _ := NewPairwiseFunc(99, 2, 64)
	f2, _ := NewPairwiseFunc(99, 2, 64)
	for k := uint64(0); k < 10000; k++ {
		if f1.Hash(k) != f2.Hash(k) {
			t.Fatalf("same-seed functions disagree at %d", k)
		}
	}
}

func TestHashDistribution(t *testing.T) {
	// Dense sequential keys should spread roughly uniformly.
	const w, n = 64, 64000
	f, _ := NewPairwiseFunc(7, 0, w)
	counts := make([]int, w)
	for k := uint64(0); k < n; k++ {
		counts[f.Hash(k)]++
	}
	mean := float64(n) / w
	for i, c := range counts {
		if math.Abs(float64(c)-mean) > mean/2 {
			t.Errorf("bucket %d has %d keys, mean %v; distribution too skewed", i, c, mean)
		}
	}
}

func TestFamilyRowsDiffer(t *testing.T) {
	fam, err := NewFamily(5, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	const n = 1000
	for k := uint64(0); k < n; k++ {
		if fam.Hash(0, k) == fam.Hash(1, k) {
			same++
		}
	}
	// Two independent functions of width 128 collide on ~1/128 of keys.
	if same > n/16 {
		t.Errorf("rows 0 and 1 agree on %d/%d keys; not independent", same, n)
	}
}

func TestFamilyCompatible(t *testing.T) {
	a, _ := NewFamily(1, 3, 50)
	b, _ := NewFamily(1, 3, 50)
	c, _ := NewFamily(2, 3, 50)
	d, _ := NewFamily(1, 4, 50)
	if !a.Compatible(b) {
		t.Error("identical families not compatible")
	}
	if a.Compatible(c) || a.Compatible(d) || a.Compatible(nil) {
		t.Error("incompatible families reported compatible")
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a window of inputs.
	seen := map[uint64]uint64{}
	for x := uint64(0); x < 100000; x++ {
		m := Mix64(x)
		if prev, dup := seen[m]; dup {
			t.Fatalf("Mix64 collision: %d and %d", prev, x)
		}
		seen[m] = x
	}
}

func TestKeyStringMatchesKeyBytes(t *testing.T) {
	for _, s := range []string{"", "a", "/index.html", "00:11:22:33:44:55"} {
		if KeyString(s) != KeyBytes([]byte(s)) {
			t.Errorf("KeyString(%q) != KeyBytes", s)
		}
	}
}

func TestGeometricLevelDistribution(t *testing.T) {
	// Pr[level = l] = 2^-(l+1): roughly half the keys land at level 0.
	const n = 100000
	counts := map[int]int{}
	for k := uint64(0); k < n; k++ {
		counts[GeometricLevel(42, k, 62)]++
	}
	if c := counts[0]; math.Abs(float64(c)-n/2) > n/20 {
		t.Errorf("level 0 has %d of %d keys, want ≈ half", c, n)
	}
	if c := counts[1]; math.Abs(float64(c)-n/4) > n/20 {
		t.Errorf("level 1 has %d of %d keys, want ≈ quarter", c, n)
	}
}

func TestGeometricLevelCap(t *testing.T) {
	for k := uint64(0); k < 10000; k++ {
		if l := GeometricLevel(1, k, 3); l > 3 {
			t.Fatalf("level %d exceeds cap 3", l)
		}
	}
}

func TestGeometricLevelDeterministic(t *testing.T) {
	for k := uint64(0); k < 1000; k++ {
		if GeometricLevel(9, k, 30) != GeometricLevel(9, k, 30) {
			t.Fatal("GeometricLevel not deterministic")
		}
	}
}

// TestHashFoldedMatchesDivision pins the fastmod reduction in HashFolded to
// the plain % operator it replaced, across widths (including 1 and primes)
// and the full folded-key range boundaries.
func TestHashFoldedMatchesDivision(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 55, 109, 544, 1 << 20, (1 << 31) - 2} {
		f, err := NewPairwiseFunc(12345, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{0, 1, 2, 1000003, mersennePrime31 - 1} {
			h := (f.a*k + f.b) % mersennePrime31
			want := int(h % f.width)
			if got := f.HashFolded(k); got != want {
				t.Fatalf("w=%d k=%d: fastmod %d, division %d", w, k, got, want)
			}
		}
		rng := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20000; i++ {
			rng = Mix64(rng + uint64(i))
			k := rng % mersennePrime31
			h := (f.a*k + f.b) % mersennePrime31
			want := int(h % f.width)
			if got := f.HashFolded(k); got != want {
				t.Fatalf("w=%d k=%d: fastmod %d, division %d", w, k, got, want)
			}
		}
	}
}

// TestHashEqualsHashFolded pins the two-step fold+reduce path to the
// original one-shot Hash for random keys.
func TestHashEqualsHashFolded(t *testing.T) {
	f, err := NewPairwiseFunc(99, 1, 101)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		key := Mix64(i * 0x9e3779b97f4a7c15)
		if f.Hash(key) != f.HashFolded(Fold(key)) {
			t.Fatalf("key %d: Hash %d != HashFolded(Fold) %d", key, f.Hash(key), f.HashFolded(Fold(key)))
		}
	}
}
