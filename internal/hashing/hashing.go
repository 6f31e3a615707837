// Package hashing provides the small universal-hash families used throughout
// the ECM-sketch implementation: pairwise-independent hashing for Count-Min
// rows, and a 64-bit mixer used to derive item identifiers and the geometric
// level assignment of randomized waves.
//
// Everything here is deterministic given a seed, which is what makes sketches
// built at different sites composable: two sketches agree on their hash
// functions exactly when they were constructed from the same seed.
package hashing

import (
	"fmt"
	"math/bits"
)

// mersennePrime31 is 2^31-1, the classic modulus for the Carter-Wegman
// multiply-add family. Our row widths are far below 2^31, so a 31-bit field
// is sufficient and keeps all arithmetic in uint64 without overflow.
const mersennePrime31 = (1 << 31) - 1

// PairwiseFunc is one member of a pairwise-independent family mapping 64-bit
// keys to [0, width).
type PairwiseFunc struct {
	a, b  uint64
	width uint64
	// magic is ⌈2^64/width⌉ (wrapping), precomputed for the exact
	// multiply-based remainder in HashFolded (Lemire's fastmod): hash paths
	// run d reductions per arrival, and a 128-bit multiply is several times
	// cheaper than a hardware divide.
	magic uint64
}

// NewPairwiseFunc derives the i-th hash function of width w from a seed.
// Functions derived from equal (seed, i, w) triples are identical, and
// functions with distinct i behave as independent members of the family.
func NewPairwiseFunc(seed uint64, i int, w int) (PairwiseFunc, error) {
	if w <= 0 {
		return PairwiseFunc{}, fmt.Errorf("hashing: width must be positive, got %d", w)
	}
	if uint64(w) > mersennePrime31 {
		return PairwiseFunc{}, fmt.Errorf("hashing: width %d exceeds field size", w)
	}
	// Derive a and b by mixing the seed with the row index. a must be
	// non-zero modulo p for pairwise independence.
	a := Mix64(seed ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
	b := Mix64(seed ^ (0xbf58476d1ce4e5b9 * uint64(i+7)))
	a = a%(mersennePrime31-1) + 1 // a in [1, p-1]
	b = b % mersennePrime31       // b in [0, p-1]
	return PairwiseFunc{a: a, b: b, width: uint64(w), magic: ^uint64(0)/uint64(w) + 1}, nil
}

// Hash maps a 64-bit key to a bucket in [0, width).
func (f PairwiseFunc) Hash(key uint64) int {
	return f.HashFolded(Fold(key))
}

// Fold compresses a 64-bit key into the 31-bit hash field. The fold is a
// fixed permutation-then-reduce shared by every function of every family, so
// ingest paths that hash one key with d row functions (an ECM-sketch update)
// pay the mix once and reuse the folded key via HashFolded.
func Fold(key uint64) uint64 {
	return FoldMixed(Mix64(key))
}

// FoldMixed folds an already-mixed key (Mix64 output) into the hash field:
// Fold(key) == FoldMixed(Mix64(key)). Callers that have paid the mix for
// other purposes (cache slot derivation) reuse it here.
func FoldMixed(x uint64) uint64 {
	lo := x & mersennePrime31
	hi := x >> 31
	return (lo + hi) % mersennePrime31
}

// HashFolded maps an already-folded key (see Fold) to a bucket in
// [0, width). Hash(key) == HashFolded(Fold(key)) for every key.
func (f PairwiseFunc) HashFolded(k uint64) int {
	h := (f.a*k + f.b) % mersennePrime31
	// h % width via fastmod: exact for h, width < 2^32.
	mod, _ := bits.Mul64(f.magic*h, f.width)
	return int(mod)
}

// Width reports the range size of the function.
func (f PairwiseFunc) Width() int { return int(f.width) }

// Family is an ordered set of d pairwise-independent functions of equal
// width, as used by the rows of a Count-Min array.
type Family struct {
	seed  uint64
	funcs []PairwiseFunc
}

// NewFamily builds d functions of width w from a seed.
func NewFamily(seed uint64, d, w int) (*Family, error) {
	if d <= 0 {
		return nil, fmt.Errorf("hashing: depth must be positive, got %d", d)
	}
	fs := make([]PairwiseFunc, d)
	for i := range fs {
		f, err := NewPairwiseFunc(seed, i, w)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return &Family{seed: seed, funcs: fs}, nil
}

// Depth reports the number of functions in the family.
func (fam *Family) Depth() int { return len(fam.funcs) }

// Width reports the common range size of the family.
func (fam *Family) Width() int { return fam.funcs[0].Width() }

// Seed reports the seed the family was derived from.
func (fam *Family) Seed() uint64 { return fam.seed }

// Hash maps a key with the i-th function of the family.
func (fam *Family) Hash(i int, key uint64) int { return fam.funcs[i].Hash(key) }

// HashFolded maps an already-folded key (see Fold) with the i-th function.
func (fam *Family) HashFolded(i int, k uint64) int { return fam.funcs[i].HashFolded(k) }

// Compatible reports whether two families were derived identically and hence
// hash every key to the same cells. Sketches may only be merged when their
// families are compatible.
func (fam *Family) Compatible(other *Family) bool {
	if other == nil {
		return false
	}
	return fam.seed == other.seed && len(fam.funcs) == len(other.funcs) &&
		fam.funcs[0].width == other.funcs[0].width
}

// Mix64 is the SplitMix64 finalizer: a fixed bijection on 64-bit integers
// with strong avalanche behaviour. It is used to turn sequence numbers and
// string digests into well-spread identifiers.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeyBytes digests an arbitrary byte string into a 64-bit key using the
// FNV-1a core followed by a finalizer mix. It exists so callers can feed
// string-keyed items (URLs, MAC addresses) into the sketches.
func KeyBytes(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return Mix64(h)
}

// KeyString digests a string into a 64-bit key; see KeyBytes.
func KeyString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return Mix64(h)
}

// KeyUint64 digests an integer key. Integer keys are mixed so that dense
// domains (0,1,2,...) spread across sketch cells.
func KeyUint64(x uint64) uint64 { return Mix64(x) }

// GeometricLevel assigns a key to a level with Pr[level = l] = 2^-(l+1),
// the assignment used by randomized-wave synopses: level = number of
// trailing zeros of a hashed key, capped at max.
func GeometricLevel(seed, key uint64, max int) int {
	h := Mix64(seed ^ Mix64(key))
	l := bits.TrailingZeros64(h)
	if l > max {
		return max
	}
	return l
}
