// Package cm implements the Count-Min sketch of Cormode & Muthukrishnan: the
// conventional, full-history frequency summary that ECM-sketches extend with
// sliding-window counters. The plain sketch doubles as the paper's baseline
// (unbounded history) and as the "extracted" linear vector representation the
// geometric monitoring method operates on.
package cm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ecmsketch/internal/hashing"
)

// Params configures a Count-Min sketch. Either give the accuracy pair
// (Epsilon, Delta) and let the dimensions be derived as w = ⌈e/ε⌉,
// d = ⌈ln(1/δ)⌉, or fix Width and Depth directly.
type Params struct {
	Epsilon float64
	Delta   float64
	Width   int
	Depth   int
	Seed    uint64
}

// normalize derives missing dimensions and validates the result.
func (p *Params) normalize() error {
	if p.Width == 0 {
		if !(p.Epsilon > 0 && p.Epsilon < 1) {
			return fmt.Errorf("cm: Epsilon must be in (0,1) when Width is unset, got %v", p.Epsilon)
		}
		p.Width = int(math.Ceil(math.E / p.Epsilon))
	}
	if p.Depth == 0 {
		if !(p.Delta > 0 && p.Delta < 1) {
			return fmt.Errorf("cm: Delta must be in (0,1) when Depth is unset, got %v", p.Delta)
		}
		p.Depth = int(math.Ceil(math.Log(1 / p.Delta)))
	}
	if p.Width <= 0 || p.Depth <= 0 {
		return fmt.Errorf("cm: dimensions must be positive, got %dx%d", p.Depth, p.Width)
	}
	return nil
}

// Sketch is a Count-Min sketch over uint64 item keys.
type Sketch struct {
	fam   *hashing.Family
	cells []uint64 // row-major d×w
	w, d  int
	count uint64 // ||a||₁: total inserted value
}

// New constructs a Count-Min sketch.
func New(p Params) (*Sketch, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	fam, err := hashing.NewFamily(p.Seed, p.Depth, p.Width)
	if err != nil {
		return nil, err
	}
	return &Sketch{
		fam:   fam,
		cells: make([]uint64, p.Depth*p.Width),
		w:     p.Width,
		d:     p.Depth,
	}, nil
}

// Width reports the row width w.
func (s *Sketch) Width() int { return s.w }

// Depth reports the number of rows d.
func (s *Sketch) Depth() int { return s.d }

// Count reports ||a||₁, the total inserted value.
func (s *Sketch) Count() uint64 { return s.count }

// Add registers value v for the item key.
func (s *Sketch) Add(key uint64, v uint64) {
	for j := 0; j < s.d; j++ {
		s.cells[j*s.w+s.fam.Hash(j, key)] += v
	}
	s.count += v
}

// Estimate returns the point-query estimate min_j CM[h_j(x), j], which never
// underestimates the true frequency and overestimates by at most ε·||a||₁
// with probability 1-δ.
func (s *Sketch) Estimate(key uint64) uint64 {
	est := s.cells[s.fam.Hash(0, key)]
	for j := 1; j < s.d; j++ {
		if v := s.cells[j*s.w+s.fam.Hash(j, key)]; v < est {
			est = v
		}
	}
	return est
}

// InnerProduct estimates a⊙b = Σ_x f_a(x)·f_b(x) as the minimum over rows of
// the row-wise cell products. Both sketches must share dimensions and hash
// functions.
func (s *Sketch) InnerProduct(o *Sketch) (uint64, error) {
	if !s.Compatible(o) {
		return 0, errors.New("cm: inner product requires identically configured sketches")
	}
	var best uint64 = math.MaxUint64
	for j := 0; j < s.d; j++ {
		var sum uint64
		row := s.cells[j*s.w : (j+1)*s.w]
		orow := o.cells[j*s.w : (j+1)*s.w]
		for i := range row {
			sum += row[i] * orow[i]
		}
		if sum < best {
			best = sum
		}
	}
	return best, nil
}

// SelfJoin estimates the second frequency moment F₂ = Σ_x f(x)².
func (s *Sketch) SelfJoin() uint64 {
	v, _ := s.InnerProduct(s)
	return v
}

// Compatible reports whether two sketches share dimensions and hash
// functions, and hence may be merged or joined.
func (s *Sketch) Compatible(o *Sketch) bool {
	return o != nil && s.w == o.w && s.d == o.d && s.fam.Compatible(o.fam)
}

// Merge adds the counters of o into s (stream concatenation). Count-Min
// sketches are linear, so the merged sketch is exactly the sketch of the
// combined stream.
func (s *Sketch) Merge(o *Sketch) error {
	if !s.Compatible(o) {
		return errors.New("cm: merge requires identically configured sketches")
	}
	for i := range s.cells {
		s.cells[i] += o.cells[i]
	}
	s.count += o.count
	return nil
}

// Reset zeroes all counters.
func (s *Sketch) Reset() {
	for i := range s.cells {
		s.cells[i] = 0
	}
	s.count = 0
}

// MemoryBytes reports the heap footprint.
func (s *Sketch) MemoryBytes() int { return 64 + 8*len(s.cells) }

// Cell returns the raw counter at row j, column i (used by tests and by the
// geometric-method extraction).
func (s *Sketch) Cell(j, i int) uint64 { return s.cells[j*s.w+i] }

// Vector is a dense real-valued view of a Count-Min array. The geometric
// monitoring method (Section 6.2) treats extracted sketches as vectors in
// R^(d·w) and performs linear algebra on them: averages, differences, norms.
type Vector struct {
	W, D  int
	Cells []float64
}

// NewVector allocates a zero vector of the given dimensions.
func NewVector(d, w int) *Vector {
	return &Vector{W: w, D: d, Cells: make([]float64, d*w)}
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := NewVector(v.D, v.W)
	copy(c.Cells, v.Cells)
	return c
}

// AddScaled sets v += α·o and returns v.
func (v *Vector) AddScaled(o *Vector, alpha float64) *Vector {
	for i := range v.Cells {
		v.Cells[i] += alpha * o.Cells[i]
	}
	return v
}

// Sub sets v -= o and returns v.
func (v *Vector) Sub(o *Vector) *Vector { return v.AddScaled(o, -1) }

// Scale multiplies v by α and returns v.
func (v *Vector) Scale(alpha float64) *Vector {
	for i := range v.Cells {
		v.Cells[i] *= alpha
	}
	return v
}

// Norm returns the Euclidean norm of v.
func (v *Vector) Norm() float64 {
	var s float64
	for _, c := range v.Cells {
		s += c * c
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance between v and o.
func (v *Vector) Dist(o *Vector) float64 {
	var s float64
	for i := range v.Cells {
		d := v.Cells[i] - o.Cells[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SelfJoin evaluates the self-join estimate of the vector: the minimum over
// rows of the row-wise sum of squared cells. This is the function f whose
// threshold crossings the geometric monitor tracks.
func (v *Vector) SelfJoin() float64 {
	best := math.Inf(1)
	for j := 0; j < v.D; j++ {
		var sum float64
		for i := 0; i < v.W; i++ {
			c := v.Cells[j*v.W+i]
			sum += c * c
		}
		if sum < best {
			best = sum
		}
	}
	return best
}

// Marshal encodes the vector dimensions and cells (8 bytes per cell) — what
// a monitoring site would ship; the monitors charge its length.
func (v *Vector) Marshal() []byte {
	buf := make([]byte, 8+8*len(v.Cells))
	binary.LittleEndian.PutUint32(buf[0:], uint32(v.D))
	binary.LittleEndian.PutUint32(buf[4:], uint32(v.W))
	for i, c := range v.Cells {
		binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(c))
	}
	return buf
}
