package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"ecmsketch/internal/cm"
	"ecmsketch/internal/hashing"
	"ecmsketch/internal/window"
)

// Tick re-exports the window package's logical timestamp.
type Tick = window.Tick

// Params configures an ECM-sketch.
type Params struct {
	// Epsilon is the total error budget ε of the sketch. It is divided
	// between the Count-Min array and the sliding-window counters according
	// to Query and Algorithm, unless an explicit Split is given.
	Epsilon float64
	// Delta is the total failure probability δ. Deterministic window
	// synopses charge it entirely to the Count-Min array (δ_cm = δ,
	// Theorem 1); randomized waves split it evenly (Theorem 3).
	Delta float64
	// Query selects which query type memory is optimized for.
	Query QueryKind
	// Algorithm selects the sliding-window synopsis implementing each
	// counter: window.AlgoEH (default), window.AlgoDW, or window.AlgoRW.
	Algorithm window.Algorithm
	// Model selects time-based or count-based windows.
	Model window.Model
	// WindowLength is N, the window length in ticks.
	WindowLength Tick
	// UpperBound is u(N,S), the per-window arrival bound required by wave
	// synopses; 0 defaults to WindowLength.
	UpperBound uint64
	// Seed derives all hash functions. Sketches must share a Seed (and all
	// dimensions) to be mergeable.
	Seed uint64
	// Split optionally overrides the automatic ε division.
	Split *Split
	// Width and Depth optionally override the derived Count-Min dimensions.
	Width, Depth int
}

// ecmSaltCounter hands out distinct default identifier salts to sketches in
// the same process so that auto-generated randomized-wave event identifiers
// never collide across sites.
var ecmSaltCounter uint64

// Sketch is an ECM-sketch: a d×w Count-Min array whose counters are sliding
// window synopses. It supports point queries, inner-product and self-join
// queries over any sub-range of the window, and order-preserving aggregation
// with other sketches of identical configuration.
//
// All three paper algorithms keep their d×w counters in one flat arena
// (window.EHBank, window.DWBank, window.RWBank): a contiguous slab addressed
// row-major, with no per-counter heap objects. Queries, serialization, deltas
// and snapshots go through the window.Bank contract and never ask which
// algorithm they hold; ingest and merging use the concrete type, so the
// ingest path pays no interface dispatch per event.
//
// Sketch is not safe for concurrent use; distributed sites each own one.
type Sketch struct {
	params Params
	split  Split
	fam    *hashing.Family
	bank   window.Bank    // the d×w counters; never nil
	eh     *window.EHBank // bank's concrete type, for ingest and merging:
	dw     *window.DWBank // exactly one of the three is non-nil
	rw     *window.RWBank
	w, d   int
	wcfg   window.Config
	now    Tick
	count  uint64 // arrivals (total inserted value) since stream start
	salt   uint64
	seq    uint64
	batch  batchScratch

	// epoch identifies this engine instance to the delta-snapshot protocol
	// (see Cursor): process-random at construction, so cursors issued by a
	// predecessor — a restarted site, a re-decoded sketch — never validate
	// against this instance. Snapshot clones share the lineage (and the
	// cell versions), so they keep the epoch.
	epoch uint64
}

// New constructs an ECM-sketch over one of the paper's three window
// algorithms (window.AlgoEH, AlgoDW, AlgoRW); any other Algorithm value —
// including one decoded from a foreign encoding — is an error.
func New(p Params) (*Sketch, error) {
	split, err := resolveSplit(&p)
	if err != nil {
		return nil, err
	}
	w, d := p.Width, p.Depth
	if w == 0 {
		w = int(math.Ceil(math.E / split.EpsCM))
	}
	deltaCM := p.Delta
	if p.Algorithm == window.AlgoRW {
		deltaCM = p.Delta / 2
	}
	if d == 0 {
		if !(deltaCM > 0 && deltaCM < 1) {
			return nil, fmt.Errorf("core: Delta must be in (0,1), got %v", p.Delta)
		}
		d = int(math.Ceil(math.Log(1 / deltaCM)))
	}
	if w <= 0 || d <= 0 {
		return nil, fmt.Errorf("core: dimensions must be positive, got %dx%d", d, w)
	}
	fam, err := hashing.NewFamily(p.Seed, d, w)
	if err != nil {
		return nil, err
	}
	wcfg := window.Config{
		Model:      p.Model,
		Length:     p.WindowLength,
		Epsilon:    split.EpsSW,
		Delta:      p.Delta / 2, // only used by RW counters
		UpperBound: p.UpperBound,
		Seed:       p.Seed,
	}
	s := &Sketch{
		params: p,
		split:  split,
		fam:    fam,
		w:      w,
		d:      d,
		wcfg:   wcfg,
		salt:   hashing.Mix64(atomic.AddUint64(&ecmSaltCounter, 1) * 0x94d049bb133111eb),
		epoch:  newEpoch(),
	}
	bank, err := window.NewBank(p.Algorithm, wcfg, d*w)
	if err != nil {
		return nil, err
	}
	s.setBank(bank)
	return s, nil
}

// setBank installs b as the sketch's counters, caching its concrete type
// for the ingest and merge paths.
func (s *Sketch) setBank(b window.Bank) {
	s.bank = b
	s.eh, _ = b.(*window.EHBank)
	s.dw, _ = b.(*window.DWBank)
	s.rw, _ = b.(*window.RWBank)
}

func resolveSplit(p *Params) (Split, error) {
	if p.WindowLength == 0 {
		return Split{}, errors.New("core: WindowLength must be positive")
	}
	if p.Split != nil {
		if !p.Split.valid() {
			return Split{}, fmt.Errorf("core: explicit split %+v invalid", *p.Split)
		}
		return *p.Split, nil
	}
	if !(p.Epsilon > 0 && p.Epsilon < 1) {
		return Split{}, fmt.Errorf("core: Epsilon must be in (0,1), got %v", p.Epsilon)
	}
	var s Split
	switch {
	case p.Algorithm == window.AlgoRW:
		s = SplitPointRW(p.Epsilon)
	case p.Query == InnerProductQuery:
		s = SplitInnerProduct(p.Epsilon)
	default:
		s = SplitPoint(p.Epsilon)
	}
	if !s.valid() {
		return Split{}, fmt.Errorf("core: derived split %+v invalid for ε=%v", s, p.Epsilon)
	}
	return s, nil
}

// Params returns the sketch configuration.
func (s *Sketch) Params() Params { return s.params }

// EffectiveSplit returns the ε division in use.
func (s *Sketch) EffectiveSplit() Split { return s.split }

// Width reports the Count-Min row width.
func (s *Sketch) Width() int { return s.w }

// Depth reports the number of Count-Min rows.
func (s *Sketch) Depth() int { return s.d }

// Count reports ||a||₁: the total value inserted since stream start
// (not windowed).
func (s *Sketch) Count() uint64 { return s.count }

// Now reports the latest tick observed.
func (s *Sketch) Now() Tick { return s.now }

// SetIDSalt overrides the salt used for auto-generated randomized-wave event
// identifiers. Sketches merged together must have been fed events with
// globally unique identifiers; within one process the default per-sketch salt
// guarantees that, while multi-process deployments should set an explicit
// site salt (see window.RWBank.SetCellIDSalt for the per-cell equivalent).
func (s *Sketch) SetIDSalt(salt uint64) { s.salt = salt }

// NormalizeCellSalts re-derives every randomized-wave cell's auto-identifier
// salt deterministically from the sketch identifier salt; a no-op for the
// other algorithms. Cell salts default to process-unique values (so bank-level
// auto-identifiers never collide across sites), but they are serialized, so
// two identically configured sketches differ byte-wise until normalized.
// Engines that never draw cell-level auto-identifiers — the sharded engine
// inserts through the sketch salt — normalize them to make identically
// configured instances byte-deterministic, which durable recovery tests
// compare against.
func (s *Sketch) NormalizeCellSalts() {
	if s.rw == nil {
		return
	}
	for i := 0; i < s.d*s.w; i++ {
		s.rw.SetCellIDSalt(i, hashing.Mix64(s.salt^(uint64(i)+1)*0xD1B54A32D192ED03))
	}
}

// Add registers one arrival of item key at tick t.
func (s *Sketch) Add(key uint64, t Tick) { s.AddN(key, t, 1) }

// AddString registers one arrival of a string-keyed item at tick t.
func (s *Sketch) AddString(key string, t Tick) { s.AddN(hashing.KeyString(key), t, 1) }

// AddN registers n simultaneous arrivals of item key at tick t. For
// randomized-wave sketches each unit arrival receives a fresh unique event
// identifier shared by the d counters it lands in.
func (s *Sketch) AddN(key uint64, t Tick, n uint64) {
	if t > s.now {
		s.now = t
	}
	s.count += n
	if s.rw != nil {
		s.addRW(key, t, n)
		return
	}
	k := hashing.Fold(key)
	if s.eh != nil {
		for j := 0; j < s.d; j++ {
			s.eh.AddN(j*s.w+s.fam.HashFolded(j, k), t, n)
		}
		return
	}
	for j := 0; j < s.d; j++ {
		s.dw.AddN(j*s.w+s.fam.HashFolded(j, k), t, n)
	}
}

// addRW inserts n unit arrivals with fresh identifiers into the d
// randomized-wave counters owning key; callers maintain s.now and s.count.
// The d counters share each arrival's identifier — that is what makes the
// position-wise merge union duplicate-insensitive across sites.
func (s *Sketch) addRW(key uint64, t Tick, n uint64) {
	k := hashing.Fold(key)
	for u := uint64(0); u < n; u++ {
		s.seq++
		id := hashing.Mix64(s.salt ^ s.seq)
		for j := 0; j < s.d; j++ {
			s.rw.AddID(j*s.w+s.fam.HashFolded(j, k), t, id)
		}
	}
}

// SetClock raises the sketch clock to t without advancing any counter —
// subsequent arrivals clamp against t, but no expiry runs. This is the
// durable-replay seam: WAL batch records carry the clock from immediately
// before the original apply, and replay must reproduce the clamp while
// leaving every cell's expiry to run exactly where the original ran it (at
// inserts and at logged advances; randomized-wave content depends on that
// ordering through capacity eviction). Not for general use — Advance is
// the normal way to move the window.
func (s *Sketch) SetClock(t Tick) {
	if t > s.now {
		s.now = t
	}
}

// Advance moves the window of every counter forward to tick t.
func (s *Sketch) Advance(t Tick) { s.AdvanceNoting(t, nil) }

// AdvanceNoting moves the window of every counter forward to tick t like
// Advance and calls note(i) for each cell whose retained content the move
// actually changed (expiry dropped content). Receivers replaying a
// producer's clock use it to keep their changed-cell feed exact. A nil note
// advances and reports nothing.
func (s *Sketch) AdvanceNoting(t Tick, note func(int)) {
	if t > s.now {
		s.now = t
	}
	window.AdvanceAll(s.bank, t, note)
}

// cellEstimateRange evaluates counter idx over the last r ticks. Counters
// are only advanced on their own arrivals; the helper first aligns them with
// the sketch clock so expired content does not linger.
func (s *Sketch) cellEstimateRange(idx int, r Tick) float64 {
	s.bank.Advance(idx, s.now)
	return s.bank.EstimateRange(idx, r)
}

// cellEstimateSince evaluates counter idx for ticks > since, aligning the
// counter with the sketch clock first.
func (s *Sketch) cellEstimateSince(idx int, since Tick) float64 {
	s.bank.Advance(idx, s.now)
	return s.bank.EstimateSince(idx, since)
}

// Estimate answers the point query (key, r): the estimated frequency of the
// item within the last r ticks, as min_j E(h_j(key), j, r).
func (s *Sketch) Estimate(key uint64, r Tick) float64 {
	k := hashing.Fold(key)
	est := math.Inf(1)
	for j := 0; j < s.d; j++ {
		if v := s.cellEstimateRange(j*s.w+s.fam.HashFolded(j, k), r); v < est {
			est = v
		}
	}
	return est
}

// EstimateString answers a point query for a string-keyed item.
func (s *Sketch) EstimateString(key string, r Tick) float64 {
	return s.Estimate(hashing.KeyString(key), r)
}

// CellIndices appends the d counter indices key's estimate is read from —
// the cells j·w + h_j(key) the min in Estimate ranges over. The mapping
// depends only on the sketch geometry (width, depth, seed), so it is
// identical across every stripe, part and merged summary of one deployment;
// standing-query evaluation uses it to intersect watched keys with changed
// cells. Hash families are immutable, so this is safe without locks.
func (s *Sketch) CellIndices(key uint64, dst []int) []int {
	k := hashing.Fold(key)
	for j := 0; j < s.d; j++ {
		dst = append(dst, j*s.w+s.fam.HashFolded(j, k))
	}
	return dst
}

// EstimateInterval estimates the frequency of key within the tick interval
// (from, to], an arbitrary sub-range of the window, as the difference of two
// suffix estimates per counter. The window error doubles to 2·ε_sw compared
// to suffix queries; the Count-Min collision term is unchanged.
func (s *Sketch) EstimateInterval(key uint64, from, to Tick) float64 {
	if to <= from {
		return 0
	}
	k := hashing.Fold(key)
	est := math.Inf(1)
	for j := 0; j < s.d; j++ {
		idx := j*s.w + s.fam.HashFolded(j, k)
		v := s.cellEstimateSince(idx, from) - s.cellEstimateSince(idx, to)
		if v < 0 {
			v = 0
		}
		if v < est {
			est = v
		}
	}
	return est
}

// EstimateWindow answers the point query over the whole window.
func (s *Sketch) EstimateWindow(key uint64) float64 {
	return s.Estimate(key, s.wcfg.Length)
}

// InnerProduct estimates a_r ⊙ b_r = Σ_x f_a(x,r)·f_b(x,r) as
// min_j Σ_i E_a(i,j,r)·E_b(i,j,r) (Section 4.1). Both sketches must share
// configuration.
func (s *Sketch) InnerProduct(o *Sketch, r Tick) (float64, error) {
	if !s.Compatible(o) {
		return 0, errors.New("core: inner product requires identically configured sketches")
	}
	best := math.Inf(1)
	for j := 0; j < s.d; j++ {
		var sum float64
		for i := 0; i < s.w; i++ {
			idx := j*s.w + i
			ea := s.cellEstimateRange(idx, r)
			if ea == 0 {
				continue
			}
			sum += ea * o.cellEstimateRange(idx, r)
		}
		if sum < best {
			best = sum
		}
	}
	return best, nil
}

// SelfJoin estimates the second frequency moment F₂ of the stream within the
// last r ticks.
func (s *Sketch) SelfJoin(r Tick) float64 {
	v, _ := s.InnerProduct(s, r)
	return v
}

// Compatible reports whether two sketches share dimensions, window
// configuration and hash functions, and hence may be merged or joined.
func (s *Sketch) Compatible(o *Sketch) bool {
	if o == nil || s.w != o.w || s.d != o.d || !s.fam.Compatible(o.fam) {
		return false
	}
	return s.wcfg.Model == o.wcfg.Model &&
		s.wcfg.Length == o.wcfg.Length &&
		s.wcfg.Epsilon == o.wcfg.Epsilon &&
		s.params.Algorithm == o.params.Algorithm
}

// ExtractVector evaluates every counter over the last r ticks and returns
// the result as a dense real vector — the representation the geometric
// monitoring method (Section 6.2) does linear algebra on.
func (s *Sketch) ExtractVector(r Tick) *cm.Vector {
	v := cm.NewVector(s.d, s.w)
	for i := range v.Cells {
		v.Cells[i] = s.cellEstimateRange(i, r)
	}
	return v
}

// EstimateTotal estimates ||a_r||₁, the total number of arrivals within the
// last r ticks, by averaging the counter sums of each row and taking the
// row minimum. The paper recommends this estimator (Section 6.1) over an
// auxiliary sliding window because per-cell errors cancel within a row.
func (s *Sketch) EstimateTotal(r Tick) float64 {
	best := math.Inf(1)
	for j := 0; j < s.d; j++ {
		var sum float64
		for i := 0; i < s.w; i++ {
			sum += s.cellEstimateRange(j*s.w+i, r)
		}
		if sum < best {
			best = sum
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// MemoryBytes reports the heap footprint of the sketch: a fixed header plus
// the arena slabs.
func (s *Sketch) MemoryBytes() int {
	return 128 + s.bank.MemoryBytes()
}

// Reset empties every counter, keeping the configuration and the arena
// capacity.
func (s *Sketch) Reset() {
	s.bank.Reset()
	s.now = 0
	s.count = 0
	s.seq = 0
}
