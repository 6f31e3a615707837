package window

import "fmt"

// Bank is the one contract the paper's interchangeable synopses sit behind
// (Sections 3–4): n sliding-window counters of one algorithm in one flat
// arena, addressed by cell index. EHBank, DWBank and RWBank are the three
// implementations — the only implementation of each synopsis that ships; the
// per-object EH, DW and RW they are tested against live in this package's
// _test.go files as differential oracles.
//
// The interface is declared here rather than at its consumer because Clone
// returns another Bank. It covers everything a sketch does per cell except
// multi-arrival ingest and merging, which stay on the concrete types: ingest
// because the entry points differ (bucketed AddN versus per-identifier AddID)
// and must not pay interface dispatch per event, merging because
// MergeCellFrom reads same-kind inputs through their concrete type.
//
// Banks are not safe for concurrent mutation; every method that only reads
// (estimates aside from Advance, the encoders) may run
// concurrently on a bank nobody mutates.
type Bank interface {
	// Config returns the configuration the bank's cells share.
	Config() Config
	// Len reports the number of cells.
	Len() int

	// Add registers one arrival at tick t in cell i.
	Add(i int, t Tick)
	// Advance moves cell i's window to tick t and reports whether expiry
	// dropped retained content.
	Advance(i int, t Tick) bool
	// Now reports the latest tick observed by cell i.
	Now(i int) Tick
	// EstimateSince estimates the arrivals in cell i with tick > since
	// (clamped to the window).
	EstimateSince(i int, since Tick) float64
	// EstimateRange estimates the arrivals in cell i within the last r ticks.
	EstimateRange(i int, r Tick) float64

	// Version reports the bank's arrival-mutation counter: it grows on every
	// content change by arrival (inserts, restores, merges) and is the scalar
	// a delta cursor compares against. Expiry and Advance deliberately do not
	// bump it: they are pure functions of (content, clock), so a receiver
	// holding the same content replays them by advancing to the same tick.
	Version() uint64
	// CellChangedSince reports whether cell i's content changed by arrival
	// after bank version since.
	CellChangedSince(i int, since uint64) bool
	// VersionVector exports the change-tracking state — the counter plus the
	// per-cell last-modified versions. Wire encodings omit versions (they are
	// engine-instance state, meaningful only next to the epoch a cursor is
	// bound to); durable snapshots persist them as a sidecar so a restarted
	// engine keeps honoring cursors issued before the crash. The slice is a
	// copy.
	VersionVector() (uint64, []uint64)
	// RestoreVersionVector installs previously exported change-tracking state.
	RestoreVersionVector(version uint64, vers []uint64) error

	// CellUntouched reports whether cell i encodes exactly as a fresh cell
	// advanced to its clock would — the sparse-baseline elision predicate.
	CellUntouched(i int) bool
	// ResetCell empties cell i, keeping its arena storage for refills — the
	// receiving half of a delta application resets a changed cell and decodes
	// the shipped encoding into it.
	ResetCell(i int)
	// Reset empties every cell, keeping configuration and arena capacity.
	// Every cell counts as mutated: a delta cursor taken before a Reset must
	// see all content re-shipped.
	Reset()
	// MemoryBytes reports the heap footprint of the whole bank.
	MemoryBytes() int

	// AppendMarshalCell appends cell i's self-describing encoding to dst.
	AppendMarshalCell(dst []byte, i int) []byte
	// AppendMarshalCellBare appends cell i's config-elided encoding to dst.
	// Delta payloads carry one cell per changed index, so repeating the
	// shared Config per cell would roughly double a sparse delta; the
	// receiver validated config identity when it accepted the baseline.
	AppendMarshalCellBare(dst []byte, i int) []byte
	// UnmarshalCell decodes either encoding into cell i, which must be empty.
	// A full-form encoding embeds its Config, which must match the bank's; a
	// bare encoding inherits it.
	UnmarshalCell(i int, enc []byte) error

	// Clone returns an independent deep copy: a few slab memcpys plus the
	// fixed header, no per-counter walking — cheap enough to take inside a
	// stripe lock. The clone shares no memory with the source.
	Clone() Bank
}

// NewBank constructs a bank of n empty counters of the given algorithm.
func NewBank(algo Algorithm, cfg Config, n int) (Bank, error) {
	switch algo {
	case AlgoEH:
		return NewEHBank(cfg, n)
	case AlgoDW:
		return NewDWBank(cfg, n)
	case AlgoRW:
		return NewRWBank(cfg, n)
	default:
		return nil, fmt.Errorf("window: no bank implements algorithm %v", algo)
	}
}

// AdvanceAll moves every cell's window to tick t and, when note is non-nil,
// calls note(i) for each cell whose retained content the move actually
// changed (expiry dropped content). Delta receivers replaying a producer's
// clock use the feed to keep their changed-cell set exact: an expired cell's
// estimate moves even though no new encoding for it was shipped — for the
// wave synopses possibly upward, when expiry forces a coarser level.
func AdvanceAll(b Bank, t Tick, note func(int)) {
	for i, n := 0, b.Len(); i < n; i++ {
		if b.Advance(i, t) && note != nil {
			note(i)
		}
	}
}

// bankCore is the bookkeeping the three banks share: the cells' common
// configuration and the change tracking behind delta snapshots. version
// counts arrival-content mutations of the whole bank and vers[i] records the
// bank version at cell i's last such mutation, so only cells with
// vers[i] > cursor ship. It is embedded by value and has no type parameters:
// the ingest loops call noteCellMutation directly.
type bankCore struct {
	cfg     Config
	version uint64
	vers    []uint64
}

// newBankCore validates the shared construction arguments.
func newBankCore(algo Algorithm, cfg Config, n int) (bankCore, error) {
	if err := cfg.Validate(algo); err != nil {
		return bankCore{}, err
	}
	if n <= 0 {
		return bankCore{}, fmt.Errorf("window: bank size must be positive, got %d", n)
	}
	return bankCore{cfg: cfg, vers: make([]uint64, n)}, nil
}

func (k *bankCore) Config() Config { return k.cfg }

func (k *bankCore) Len() int { return len(k.vers) }

func (k *bankCore) Version() uint64 { return k.version }

func (k *bankCore) CellChangedSince(i int, since uint64) bool { return k.vers[i] > since }

// noteCellMutation stamps cell i as changed at a fresh bank version.
func (k *bankCore) noteCellMutation(i int) {
	k.version++
	k.vers[i] = k.version
}

// noteAllMutated stamps every cell as changed at one fresh bank version.
func (k *bankCore) noteAllMutated() {
	k.version++
	for i := range k.vers {
		k.vers[i] = k.version
	}
}

func (k *bankCore) VersionVector() (uint64, []uint64) {
	return k.version, append([]uint64(nil), k.vers...)
}

func (k *bankCore) RestoreVersionVector(version uint64, vers []uint64) error {
	if len(vers) != len(k.vers) {
		return fmt.Errorf("window: version vector has %d cells, bank has %d", len(vers), len(k.vers))
	}
	for i, v := range vers {
		if v > version {
			return fmt.Errorf("window: cell %d version %d exceeds bank version %d", i, v, version)
		}
	}
	k.version = version
	copy(k.vers, vers)
	return nil
}

// clone returns a copy that shares no memory with k.
func (k *bankCore) clone() bankCore {
	return bankCore{cfg: k.cfg, version: k.version, vers: cloneExact(k.vers)}
}

// cloneExact copies s into a slice of exactly its length, so a cloned arena
// reports the footprint it uses rather than an allocator size class.
func cloneExact[T any](s []T) []T {
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// readCellTag consumes the preamble every cell encoding opens with: the tag
// byte and, for the self-describing form (tag full), the embedded Config,
// which must equal the bank's — bank cells share one Config by construction,
// so a mismatch means the encoding belongs to a different synopsis. The
// config-elided form (tag bare) carries none and inherits the bank's.
func (k *bankCore) readCellTag(r *wireReader, full, bare byte, name string) error {
	tag, err := r.byte1()
	if err != nil {
		return err
	}
	switch tag {
	case full:
		cfg, err := r.config()
		if err != nil {
			return err
		}
		if !configEqual(cfg, k.cfg) {
			return fmt.Errorf("window: %s encoding config %+v does not match bank config %+v", name, cfg, k.cfg)
		}
	case bare:
	default:
		return fmt.Errorf("window: expected %s encoding, got tag 0x%02x", name, tag)
	}
	return nil
}
