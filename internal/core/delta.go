package core

// This file is the delta half of the snapshot protocol: cursor-based
// incremental pulls that ship only what changed since the puller's last
// cursor, instead of the whole summary on every pull.
//
// The contract, end to end:
//
//   - A producer (one sketch, or a striped engine of several) hands out a
//     Cursor with every snapshot: its process-random epoch plus one version
//     per part. Versions count arrival-content mutations only — expiry and
//     clock movement are deterministic functions of (content, clock), so
//     they never need to ship; the receiver replays them by advancing to
//     the clock carried in each delta.
//   - Given a cursor it recognizes (same epoch, versions not from the
//     future), the producer emits a delta: for each part whose version
//     moved, the cells whose per-cell version moved, as ordinary cell
//     encodings, plus the part's clock/count header. An unchanged part
//     contributes zero bytes; an unchanged cell inside a changed part
//     contributes zero bytes. There is no explicit tombstone list: content
//     that died of expiry is reproduced by the receiver advancing its copy
//     to the delta's clock, and a cell fully emptied by expiry after new
//     arrivals ships as an (empty) cell encoding like any other change.
//   - A receiver (DeltaState) holds the parts as decoded sketches, applies
//     deltas in place, and materializes the full summary on demand. The
//     reconstruction is byte-identical (Marshal) to a full snapshot taken
//     at the same versions — the equivalence tests pin this across both
//     the in-process and HTTP transports.
//   - Anything off-protocol — unknown epoch (site restart, parameter
//     change), versions from the future, torn or corrupt payloads — fails
//     the Apply, which resets the receiver state so the caller falls back
//     to a full pull. Invalidation is always safe: a full pull re-baselines.
//
// Delta payloads carry cells in the config-elided bare form
// (window.Bank.AppendMarshalCellBare): a delta only ever applies against a
// baseline whose Config was already validated, so repeating the shared
// per-cell Config (~30 bytes) per changed cell would roughly double a
// sparse delta pre-gzip. The cell decoder accepts both forms, so payloads
// from producers still shipping full-form cells keep applying; full
// snapshots are byte-identical to what they always were.

import (
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"ecmsketch/internal/hashing"
)

// Delta payload tags, continuing the 0xEC (wireECM) namespace.
const (
	wireDelta      byte = 0xED // single-sketch incremental delta
	wireMultiFull  byte = 0xEE // multipart baseline: one sketch encoding per part
	wireMultiDelta byte = 0xEF // multipart delta: sub-deltas for changed parts
)

// maxDeltaParts bounds the part count a multipart payload may declare;
// real producers have one part per lock stripe, far below this.
const maxDeltaParts = 1 << 12

// epochBase seeds epoch generation with process randomness, so two
// processes (or two runs of one binary) can never hand out colliding
// epochs: a cursor issued by a dead instance must not validate against its
// replacement.
var epochBase = func() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degraded mode: epochs stay unique within the process.
		return 0x9e37_79b9_7f4a_7c15
	}
	return binary.LittleEndian.Uint64(b[:])
}()

var epochSeq atomic.Uint64

// NewEpoch returns a nonzero process-random identifier for one serving
// engine instance. Epoch 0 is reserved for the zero cursor ("no baseline").
func NewEpoch() uint64 {
	e := hashing.Mix64(epochBase ^ epochSeq.Add(1))
	if e == 0 {
		e = 1
	}
	return e
}

func newEpoch() uint64 { return NewEpoch() }

// Cursor names a producer state in the delta-snapshot protocol: the
// producing engine instance (Epoch) and one arrival-mutation version per
// part (a single sketch has one part; a striped engine has one per stripe).
// Cursors are opaque to pullers — obtained from one pull, echoed on the
// next — and validated, never trusted: a cursor the producer does not
// recognize yields a full snapshot.
type Cursor struct {
	Epoch uint64
	Vers  []uint64
}

// IsZero reports whether the cursor is the zero cursor ("no baseline"): a
// puller presents it to request a fresh baseline, and a producer that does
// not speak the protocol returns it.
func (c Cursor) IsZero() bool { return c.Epoch == 0 && len(c.Vers) == 0 }

// Clone returns an independent copy (cursors share no state with their
// origin, so pulls retained across goroutines stay race-free).
func (c Cursor) Clone() Cursor {
	return Cursor{Epoch: c.Epoch, Vers: append([]uint64(nil), c.Vers...)}
}

// String renders the cursor in its URL-safe wire form (the ?since= value
// and X-Ecm-Cursor header of the HTTP protocol): "0" for the zero cursor,
// otherwise unpadded base64url over a varint-packed binary encoding.
func (c Cursor) String() string {
	if c.IsZero() {
		return "0"
	}
	b := binary.AppendUvarint(nil, c.Epoch)
	b = binary.AppendUvarint(b, uint64(len(c.Vers)))
	for _, v := range c.Vers {
		b = binary.AppendUvarint(b, v)
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// ParseCursor decodes the String form. The empty string parses as the zero
// cursor; anything malformed is an error (servers treat it as "no usable
// cursor" and reply with a full baseline).
func ParseCursor(s string) (Cursor, error) {
	if s == "" || s == "0" {
		return Cursor{}, nil
	}
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Cursor{}, fmt.Errorf("core: bad cursor: %v", err)
	}
	r := &reader{b: b, what: "cursor"}
	c := Cursor{Epoch: r.uvarint()}
	n := r.uvarint()
	if r.err != nil {
		return Cursor{}, r.err
	}
	if n > maxDeltaParts {
		return Cursor{}, fmt.Errorf("core: cursor declares %d parts", n)
	}
	c.Vers = make([]uint64, n)
	for i := range c.Vers {
		c.Vers[i] = r.uvarint()
	}
	if r.err != nil {
		return Cursor{}, r.err
	}
	if r.off != len(b) {
		return Cursor{}, errors.New("core: trailing bytes in cursor")
	}
	return c, nil
}

// DeltaVersion reports the sketch's arrival-mutation version — the scalar a
// cursor carries per part. The bank tracks it, alongside the per-cell
// versions that make deltas cell-granular.
func (s *Sketch) DeltaVersion() uint64 { return s.bank.Version() }

// Epoch reports the engine-instance identifier cursors are bound to.
func (s *Sketch) Epoch() uint64 { return s.epoch }

// SetEpoch overrides the engine-instance identifier. The one legitimate
// caller is durable recovery: a restarted engine that restored its
// predecessor's exact content and version vector may also adopt its epoch,
// so cursors issued before the crash keep validating. Injecting an epoch
// without restoring the matching state silently serves wrong deltas —
// every other path should let New mint a fresh epoch and re-baseline.
func (s *Sketch) SetEpoch(e uint64) { s.epoch = e }

// VersionVector exports the change-tracking state behind DeltaVersion: the
// arrival-mutation counter plus per-cell last-modified versions. Wire
// encodings deliberately omit these (Unmarshal starts a new engine
// instance under a fresh epoch); durable snapshots persist them as a
// sidecar next to the Marshal bytes so a restart restores cursor
// continuity.
func (s *Sketch) VersionVector() (uint64, []uint64) { return s.bank.VersionVector() }

// RestoreVersionVector installs previously exported change-tracking state;
// the counterpart of VersionVector for durable recovery.
func (s *Sketch) RestoreVersionVector(version uint64, vers []uint64) error {
	return s.bank.RestoreVersionVector(version, vers)
}

// DeltaSnapshot implements the cursor-based snapshot contract on a single
// sketch. Given the cursor from a previous pull it returns an incremental
// payload holding only the cells that changed since (full == false); given
// a cursor it does not recognize — zero, another epoch, versions from the
// future — it returns a full snapshot (standard Marshal bytes,
// full == true) re-baselining the puller. The returned cursor names the
// state the payload brings the puller to.
//
// The sketch is settled (advanced to its own clock) as a side effect, so
// the emitted state and all later deltas share one expiry frontier; this
// never changes query answers or the cursor.
func (s *Sketch) DeltaSnapshot(since Cursor) ([]byte, Cursor, bool, error) {
	ver := s.DeltaVersion()
	cur := Cursor{Epoch: s.epoch, Vers: []uint64{ver}}
	if since.Epoch == s.epoch && len(since.Vers) == 1 && since.Vers[0] <= ver {
		s.Advance(s.now)
		return s.appendDelta(nil, s.epoch, since.Vers[0]), cur, false, nil
	}
	s.Advance(s.now)
	return s.Marshal(), cur, true, nil
}

// AppendDeltaSince appends the sketch's incremental encoding since version
// base, stamped with the producing engine's epoch (a striped engine stamps
// its own epoch on every stripe's sub-delta). The sketch is settled first.
func (s *Sketch) AppendDeltaSince(dst []byte, epoch, base uint64) []byte {
	s.Advance(s.now)
	return s.appendDelta(dst, epoch, base)
}

// appendDelta appends the wireDelta encoding: a header naming the version
// span and carrying the clock/count fields, then one bare (config-elided)
// cell encoding per changed cell. The caller must have settled the sketch.
func (s *Sketch) appendDelta(dst []byte, epoch, base uint64) []byte {
	dst = append(dst, wireDelta)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, base)
	dst = binary.AppendUvarint(dst, s.DeltaVersion())
	dst = binary.AppendUvarint(dst, s.now)
	dst = binary.AppendUvarint(dst, s.count)
	dst = binary.AppendUvarint(dst, s.salt)
	dst = binary.AppendUvarint(dst, s.seq)
	changed := 0
	for i := 0; i < s.d*s.w; i++ {
		if s.bank.CellChangedSince(i, base) {
			changed++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(changed))
	prev := 0
	var cell []byte
	for i := 0; i < s.d*s.w; i++ {
		if !s.bank.CellChangedSince(i, base) {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		prev = i
		cell = s.bank.AppendMarshalCellBare(cell[:0], i)
		dst = binary.AppendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}

// applyDelta applies a wireDelta payload produced against version base by
// an engine with the given epoch: changed cells are replaced by their
// shipped encodings, everything else is carried to the delta's clock, so
// the sketch ends byte-identical (Marshal) to the producer's settled state
// at the returned new version. Validation is strict — any mismatch or
// truncation errors out, and the caller must treat the sketch as torn.
// record, when non-nil, receives the index of every replaced cell — the
// change feed standing-query evaluation on coordinators is driven by.
func (s *Sketch) applyDelta(payload []byte, epoch, base uint64, record func(int)) (uint64, error) {
	if len(payload) == 0 || payload[0] != wireDelta {
		return 0, errors.New("core: not a delta encoding")
	}
	r := &reader{b: payload, off: 1, what: "delta"}
	hdr := struct{ epoch, base, ver, now, count, salt, seq, changed uint64 }{}
	for _, f := range []*uint64{
		&hdr.epoch, &hdr.base, &hdr.ver, &hdr.now, &hdr.count, &hdr.salt, &hdr.seq, &hdr.changed,
	} {
		*f = r.uvarint()
	}
	if r.err != nil {
		return 0, r.err
	}
	if hdr.epoch != epoch {
		return 0, fmt.Errorf("core: delta epoch %x does not match %x", hdr.epoch, epoch)
	}
	if hdr.base != base {
		return 0, fmt.Errorf("core: delta base version %d does not match held version %d", hdr.base, base)
	}
	if hdr.ver < hdr.base {
		return 0, errors.New("core: delta version regressed")
	}
	if hdr.changed > uint64(len(payload)) { // ≥1 byte per changed cell
		return 0, errors.New("core: corrupt delta")
	}
	idx := 0
	for k := uint64(0); k < hdr.changed; k++ {
		idx = r.index(idx, s.d*s.w, k == 0)
		enc := r.chunk()
		if r.err != nil {
			return 0, r.err
		}
		s.bank.ResetCell(idx)
		if err := s.bank.UnmarshalCell(idx, enc); err != nil {
			return 0, fmt.Errorf("core: delta cell %d: %w", idx, err)
		}
		if record != nil {
			record(idx)
		}
	}
	if r.off != len(payload) {
		return 0, errors.New("core: trailing bytes in delta")
	}
	if hdr.now > s.now {
		s.now = hdr.now
	}
	s.count, s.salt, s.seq = hdr.count, hdr.salt, hdr.seq
	// Settle every cell — including the unchanged ones — to the delta's
	// clock: this replays the producer's expiry exactly (no tombstones on
	// the wire; expiry is deterministic). Cells the replay mutates join the
	// change feed — their estimates moved (for the wave synopses possibly
	// upward, when expiry forces a coarser level) even though no encoding
	// for them was shipped.
	s.AdvanceNoting(s.now, record)
	return hdr.ver, nil
}

// EncodeMultiFull frames a striped engine's baseline snapshot: every part's
// full encoding, length-prefixed, under one header. The receiver holds the
// parts individually so later multipart deltas can update them in place.
func EncodeMultiFull(epoch uint64, now Tick, parts [][]byte) []byte {
	dst := []byte{wireMultiFull}
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(len(parts)))
	dst = binary.AppendUvarint(dst, now)
	for _, enc := range parts {
		dst = binary.AppendUvarint(dst, uint64(len(enc)))
		dst = append(dst, enc...)
	}
	return dst
}

// PartDelta is one changed part of a multipart delta: the part's index and
// its wireDelta sub-payload. Unchanged parts do not appear at all.
type PartDelta struct {
	Index   int
	Payload []byte
}

// EncodeMultiDelta frames a striped engine's incremental snapshot: the
// engine clock (which carries expiry to every part, changed or not) and the
// changed parts' sub-deltas. An idle engine frames an empty delta of a few
// bytes.
func EncodeMultiDelta(epoch uint64, now Tick, nparts int, changed []PartDelta) []byte {
	dst := []byte{wireMultiDelta}
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(nparts))
	dst = binary.AppendUvarint(dst, now)
	dst = binary.AppendUvarint(dst, uint64(len(changed)))
	prev := 0
	for _, pd := range changed {
		dst = binary.AppendUvarint(dst, uint64(pd.Index-prev))
		prev = pd.Index
		dst = binary.AppendUvarint(dst, uint64(len(pd.Payload)))
		dst = append(dst, pd.Payload...)
	}
	return dst
}

// DeltaState is the receiving half of the protocol: it holds one producer's
// parts as decoded sketches, applies full and incremental payloads, and
// materializes the combined summary on demand. A coordinator keeps one per
// site.
//
// DeltaState is not safe for concurrent use; callers serialize access (the
// coordinator holds a per-site mutex across pull→apply→materialize).
type DeltaState struct {
	epoch uint64
	vers  []uint64
	parts []*Sketch
	now   Tick
	// merged caches the cross-part Merge of Materialize. Instead of being
	// invalidated wholesale, it is patched in place (PatchMerged) from the
	// cells deltas actually changed — mergedDirty/mergedDirtyAll mirror the
	// external change feed for that purpose — so a steady-state pull costs
	// re-deriving a handful of cells, not a P-way merge.
	merged         *Sketch
	mergedDirty    []int
	mergedDirtyAll bool

	// changed accumulates the cell indices replaced by applied deltas
	// since the last TakeChangedCells — the change feed coordinators hand
	// to standing-query evaluation. Cell positions are geometry-relative
	// (width·depth·seed), identical across parts and the merged summary.
	// changedAll stands in for the whole index space when cell granularity
	// is unavailable: full baselines or an accumulation past
	// maxTrackedCells.
	changed    []int
	changedAll bool

	fulls, deltas uint64
}

// maxTrackedCells caps the changed-cell accumulation; past it, the set
// degrades to "everything changed" rather than growing without bound.
const maxTrackedCells = 4096

// noteCell records one changed cell into both accumulations: the external
// change feed (TakeChangedCells) and the merged-cache dirty set.
func (st *DeltaState) noteCell(idx int) {
	noteInto(&st.changed, &st.changedAll, idx)
	noteInto(&st.mergedDirty, &st.mergedDirtyAll, idx)
}

func noteInto(cells *[]int, all *bool, idx int) {
	if *all {
		return
	}
	if len(*cells) >= maxTrackedCells {
		*cells, *all = nil, true
		return
	}
	*cells = append(*cells, idx)
}

// TakeChangedCells returns and clears the cell indices changed by applies
// since the previous call. all reports that cell granularity was lost
// (full baseline, overflow) and every cell may have changed. The returned
// slice may hold duplicates.
func (st *DeltaState) TakeChangedCells() (cells []int, all bool) {
	cells, all = st.changed, st.changedAll
	st.changed, st.changedAll = nil, false
	return cells, all
}

// HasBaseline reports whether a baseline has been applied.
func (st *DeltaState) HasBaseline() bool { return len(st.parts) > 0 }

// Cursor names the state currently held — the value to present on the next
// pull. Zero until a baseline with a cursor is applied, and zero again
// whenever the producer does not speak the protocol (so the puller keeps
// requesting full snapshots).
func (st *DeltaState) Cursor() Cursor {
	if !st.HasBaseline() || st.epoch == 0 {
		return Cursor{}
	}
	return Cursor{Epoch: st.epoch, Vers: append([]uint64(nil), st.vers...)}
}

// FullApplies and DeltaApplies report how many full baselines and
// incremental deltas this state has absorbed — the observability hook the
// fallback tests (and coordinator stats) read.
func (st *DeltaState) FullApplies() uint64  { return st.fulls }
func (st *DeltaState) DeltaApplies() uint64 { return st.deltas }

// Reset drops the baseline; the next Cursor is zero and the next pull must
// be full. A coordinator that keeps serving its previous view across a
// site's bad pull snapshots the materialization before resetting.
func (st *DeltaState) Reset() { *st = DeltaState{fulls: st.fulls, deltas: st.deltas} }

// Apply absorbs one pull: payload plus the cursor and full flag the
// producer returned alongside it. Any validation failure — wrong epoch,
// version mismatch, torn or corrupt payload — drops the baseline and
// returns the error, so the caller's next pull re-baselines with a full
// snapshot. A failed Apply never leaves a half-updated baseline in use.
func (st *DeltaState) Apply(payload []byte, cur Cursor, full bool) error {
	if err := st.apply(payload, cur, full); err != nil {
		st.Reset()
		return err
	}
	if full {
		st.fulls++
	} else {
		st.deltas++
	}
	return nil
}

func (st *DeltaState) apply(payload []byte, cur Cursor, full bool) error {
	if len(payload) == 0 {
		return errors.New("core: empty snapshot payload")
	}
	if full {
		return st.applyFull(payload, cur)
	}
	if !st.HasBaseline() || st.epoch == 0 {
		return errors.New("core: delta payload without a baseline")
	}
	switch payload[0] {
	case wireDelta:
		if len(st.parts) != 1 {
			return fmt.Errorf("core: single-part delta against %d-part baseline", len(st.parts))
		}
		ver, err := st.parts[0].applyDelta(payload, st.epoch, st.vers[0], st.noteCell)
		if err != nil {
			return err
		}
		if len(cur.Vers) != 1 || cur.Vers[0] != ver {
			return errors.New("core: delta cursor does not match applied version")
		}
		st.vers[0] = ver
		if n := st.parts[0].Now(); n > st.now {
			st.now = n
		}
		return nil
	case wireMultiDelta:
		return st.applyMultiDelta(payload, cur)
	default:
		return fmt.Errorf("core: unknown delta tag 0x%02x", payload[0])
	}
}

func (st *DeltaState) applyFull(payload []byte, cur Cursor) error {
	switch payload[0] {
	case wireECM, wireSparse:
		sk, err := UnmarshalAny(payload)
		if err != nil {
			return err
		}
		sk.Advance(sk.Now()) // protocol state is the settled state
		st.parts = []*Sketch{sk}
		st.now = sk.Now()
	case wireMultiFull:
		epoch, now, parts, err := decodeMultiFull(payload)
		if err != nil {
			return err
		}
		if !cur.IsZero() && cur.Epoch != epoch {
			return errors.New("core: baseline epoch does not match its cursor")
		}
		for _, p := range parts {
			p.Advance(now) // settle to the engine clock up front
		}
		st.parts = parts
		st.now = now
	default:
		return fmt.Errorf("core: unknown snapshot tag 0x%02x", payload[0])
	}
	// A fresh baseline invalidates any cell-granular accumulation and the
	// merged cache (the old parts are gone; patching has nothing to patch).
	st.changed, st.changedAll = nil, true
	st.merged, st.mergedDirty, st.mergedDirtyAll = nil, nil, false
	if cur.IsZero() {
		// Producer does not speak cursors (a plain snapshot source): keep
		// pulling full.
		st.epoch, st.vers = 0, nil
	} else {
		if len(cur.Vers) != len(st.parts) {
			return fmt.Errorf("core: cursor names %d parts, baseline holds %d", len(cur.Vers), len(st.parts))
		}
		st.epoch = cur.Epoch
		st.vers = append([]uint64(nil), cur.Vers...)
	}
	return nil
}

func (st *DeltaState) applyMultiDelta(payload []byte, cur Cursor) error {
	r := &reader{b: payload, off: 1, what: "multipart delta"}
	epoch, nparts, now, nChanged := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil {
		return r.err
	}
	if epoch != st.epoch {
		return fmt.Errorf("core: multipart delta epoch %x does not match %x", epoch, st.epoch)
	}
	if nparts != uint64(len(st.parts)) {
		return fmt.Errorf("core: multipart delta names %d parts, baseline holds %d", nparts, len(st.parts))
	}
	if nChanged > nparts {
		return errors.New("core: multipart delta changes more parts than exist")
	}
	if len(cur.Vers) != len(st.parts) {
		return errors.New("core: multipart delta cursor part count mismatch")
	}
	newVers := append([]uint64(nil), st.vers...)
	idx := 0
	for k := uint64(0); k < nChanged; k++ {
		idx = r.index(idx, len(st.parts), k == 0)
		sub := r.chunk()
		if r.err != nil {
			return r.err
		}
		ver, err := st.parts[idx].applyDelta(sub, st.epoch, st.vers[idx], st.noteCell)
		if err != nil {
			return fmt.Errorf("core: part %d: %w", idx, err)
		}
		newVers[idx] = ver
	}
	if r.off != len(payload) {
		return errors.New("core: trailing bytes in multipart delta")
	}
	// The cursor must name exactly the state we just built: changed parts
	// at their sub-delta versions, unchanged parts where they were.
	for i, v := range newVers {
		if cur.Vers[i] != v {
			return fmt.Errorf("core: multipart delta cursor version mismatch at part %d", i)
		}
	}
	st.vers = newVers
	if now > st.now {
		st.now = now
	}
	// Settle every part — changed or not — to the engine clock with expiry
	// noting. Sub-deltas only advance their own part to its stripe clock,
	// and an unchanged part ships zero bytes yet still expires under the
	// moving engine clock: both gaps would otherwise leak expired content
	// past the change feed (and past the merged-cache patch, which trusts
	// the feed to name every divergent cell).
	for _, p := range st.parts {
		if p.Now() < st.now {
			p.AdvanceNoting(st.now, st.noteCell)
		}
	}
	return nil
}

func decodeMultiFull(payload []byte) (epoch uint64, now Tick, parts []*Sketch, err error) {
	r := &reader{b: payload, off: 1, what: "multipart baseline"}
	epoch = r.uvarint()
	nparts := r.uvarint()
	now = r.uvarint()
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if nparts == 0 || nparts > maxDeltaParts {
		return 0, 0, nil, fmt.Errorf("core: multipart baseline declares %d parts", nparts)
	}
	parts = make([]*Sketch, nparts)
	for i := range parts {
		enc := r.chunk()
		if r.err != nil {
			return 0, 0, nil, r.err
		}
		if parts[i], err = UnmarshalAny(enc); err != nil {
			return 0, 0, nil, fmt.Errorf("core: baseline part %d: %w", i, err)
		}
	}
	if r.off != len(payload) {
		return 0, 0, nil, errors.New("core: trailing bytes in multipart baseline")
	}
	// The parts exist to be merged (Materialize); a baseline whose parts
	// cannot be is corrupt, and is refused here rather than at first use.
	if len(parts) > 1 {
		if err := checkMergeable(parts); err != nil {
			return 0, 0, nil, fmt.Errorf("core: multipart baseline: %w", err)
		}
	}
	return epoch, now, parts, nil
}

// Materialize returns an independent sketch of the producer's combined
// state at the held cursor: the single part cloned, or the parts merged
// (with the same order-preserving ⊕, over parts advanced to the engine
// clock, that the producer's own full snapshot path uses — which is what
// makes delta reconstruction byte-identical to full pulls). The result is
// freshly owned on every call.
func (st *DeltaState) Materialize() (*Sketch, error) {
	m, err := st.MaterializeShared()
	if err != nil {
		return nil, err
	}
	return m.Snapshot()
}

// MaterializeShared is Materialize without the defensive clone: it returns
// the combined summary the state holds internally — the single part itself,
// or the cached cross-part merge, patched in place (PatchMerged) from the
// cells the applied deltas actually changed rather than re-merged P-ways.
// The caller must treat the result as read-only and must not retain it
// across a later Apply, which mutates it; a coordinator serving many sites
// uses this to feed its own merge without one arena clone per site per
// interval. The patched cache is byte-identical (Marshal) to a from-scratch
// Merge of the parts — the identity the delta equivalence tests pin.
func (st *DeltaState) MaterializeShared() (*Sketch, error) {
	if !st.HasBaseline() {
		return nil, errors.New("core: no baseline to materialize")
	}
	// Applies settle parts to the engine clock already; this catches states
	// populated before that invariant held (and costs nothing when settled).
	for _, p := range st.parts {
		if p.Now() < st.now {
			p.AdvanceNoting(st.now, st.noteCell)
		}
	}
	if len(st.parts) == 1 {
		st.mergedDirty, st.mergedDirtyAll = nil, false
		return st.parts[0], nil
	}
	switch {
	case st.merged == nil:
		m, err := Merge(st.parts...)
		if err != nil {
			return nil, err
		}
		st.merged = m
	case st.mergedDirtyAll || len(st.mergedDirty) > 0 || st.merged.Now() < st.now:
		if err := PatchMerged(st.merged, st.parts, st.mergedDirty, st.mergedDirtyAll, nil); err != nil {
			// Patching validates before mutating, so the cache is intact but
			// stale; rebuild it from scratch.
			m, merr := Merge(st.parts...)
			if merr != nil {
				return nil, merr
			}
			st.merged = m
		}
	}
	st.mergedDirty, st.mergedDirtyAll = nil, false
	return st.merged, nil
}
