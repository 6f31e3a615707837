package window

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"
)

// Fuzz targets: decoders must never panic on arbitrary bytes — they either
// reconstruct a queryable synopsis or return an error. `go test` exercises
// the seed corpus; `go test -fuzz=FuzzUnmarshalEH ./internal/window` digs
// deeper.

func fuzzSeeds(f *testing.F, enc []byte) {
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte{0xE1})
	f.Add([]byte{0xE2, 0x00})
	f.Add([]byte{0xE3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	if len(enc) > 4 {
		mut := append([]byte(nil), enc...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(mut)
		f.Add(enc[:len(enc)/2])
	}
}

// FuzzUnmarshalEH holds both EH forms to the oracle decoder. Whatever the
// oracle accepts, the bank accepts in the config-elided form of the same
// tag, and the two decode to the same answers and bytes; whatever decodes
// under the sized tag, transcoded to the size-free one, decodes to the same
// cell bytes, answers and version vector.
func FuzzUnmarshalEH(f *testing.F) {
	cfg := Config{Length: 1000, Epsilon: 0.1}
	h, err := NewEH(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := Tick(1); i <= 500; i++ {
		h.Add(i)
	}
	fuzzSeeds(f, h.Marshal())
	if golden, err := hex.DecodeString(ehGoldenHex); err == nil {
		f.Add(golden) // sized-form golden vector (see golden_test.go)
	}
	sized := func(now Tick, bs ...Bucket) []byte {
		return appendEHSized(binary.AppendUvarint(appendConfig([]byte{wireEHSized}, cfg), now), bs)
	}
	sizeFree := func(now Tick, levels uint64, body ...uint64) []byte {
		dst := binary.AppendUvarint(appendConfig([]byte{wireEH}, cfg), now)
		dst = binary.AppendUvarint(dst, levels)
		for _, v := range body {
			dst = binary.AppendUvarint(dst, v)
		}
		return dst
	}
	f.Add(sized(h.Now(), h.Buckets()...)) // #8: the seed histogram, sized
	if golden, err := hex.DecodeString(ehGoldenSizeFreeHex); err == nil {
		f.Add(golden) // #9
	}
	// #10: the class-0 bucket's start delta wraps past 2^64 right at the
	// class boundary: [5, 6] of size 2, then a unit at tick 4.
	f.Add(sizeFree(10, 2, 1, 1, 5, 1, ^uint64(0)-1))
	// #11: a sized class-0 bucket spanning two ticks.
	f.Add(sized(10, Bucket{Start: 5, End: 6, Size: 2}, Bucket{Start: 7, End: 8, Size: 1}))
	// #12: empty classes between and above the buckets decode.
	f.Add(sizeFree(40, 4, 0, 1, 0, 2, 3, 2, 9, 10))
	f.Add([]byte{wireEH}) // #13
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := UnmarshalEH(data)
		// The flat bank decodes the same body, in the config-elided form of
		// the same tag, into a bank of the encoding's own configuration
		// whenever that configuration is valid, and must accept exactly what
		// the per-object decoder accepts.
		var bank *EHBank
		isSized := len(data) > 0 && data[0] == wireEHSized
		if r := (wireReader{b: data, off: 1}); len(data) > 0 && (data[0] == wireEH || isSized) {
			if cfg, cerr := r.config(); cerr == nil {
				if bank, _ = NewEHBank(cfg, 1); bank != nil {
					bareTag := wireEHBare
					if isSized {
						bareTag = wireEHSizedBare
					}
					bare := append([]byte{bareTag}, data[r.off:]...)
					if berr := bank.UnmarshalCell(0, bare); (berr == nil) != (err == nil) {
						t.Fatalf("decoders disagree: bank %v, EH %v", berr, err)
					}
				}
			}
		}
		if err != nil {
			return
		}
		if bank == nil {
			t.Fatalf("no bank for decoded config %+v", dec.Config())
		}
		requireBanksOrdered(t, bank)
		// Whatever decoded must answer queries without panicking, respect
		// basic sanity, and answer alike from both decoders.
		w := dec.EstimateWindow()
		if w < 0 {
			t.Fatalf("negative estimate %v", w)
		}
		if got, want := bank.AppendMarshalCell(nil, 0), dec.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("decoded encodings differ:\n bank %x\n EH   %x", got, want)
		}
		if got := bank.EstimateRange(0, bank.Config().Length); got != w {
			t.Fatalf("bank decoded EstimateWindow %v, EH %v", got, w)
		}
		if got := bank.EstimateSince(0, dec.Now()/2); got != dec.EstimateSince(dec.Now()/2) {
			t.Fatalf("bank EstimateSince %v, EH %v", got, dec.EstimateSince(dec.Now()/2))
		}
		if isSized {
			// The same bucket list, before any repair, in the size-free form.
			_, now, bs, err := readEH(data)
			if err != nil {
				t.Fatalf("oracle decoded what it cannot read: %v", err)
			}
			enc := appendEHClasses(binary.AppendUvarint([]byte{wireEHBare}, now), bs)
			tb, err := NewEHBank(bank.Config(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.UnmarshalCell(0, enc); err != nil {
				t.Fatalf("size-free transcoding rejected: %v", err)
			}
			if got, want := tb.AppendMarshalCell(nil, 0), bank.AppendMarshalCell(nil, 0); !bytes.Equal(got, want) {
				t.Fatalf("transcoded cell differs:\n size-free %x\n sized     %x", got, want)
			}
			if got := tb.EstimateSince(0, dec.Now()/2); got != bank.EstimateSince(0, dec.Now()/2) {
				t.Fatalf("transcoded EstimateSince %v, sized %v", got, bank.EstimateSince(0, dec.Now()/2))
			}
			if got := tb.EstimateRange(0, bank.Config().Length); got != w {
				t.Fatalf("transcoded EstimateWindow %v, sized %v", got, w)
			}
			gv, gvs := tb.VersionVector()
			wv, wvs := bank.VersionVector()
			if gv != wv || !slices.Equal(gvs, wvs) {
				t.Fatalf("transcoded version vector %d %v, sized %d %v", gv, gvs, wv, wvs)
			}
		}
		// On the decoded histogram's canonical re-encoding the two decoders
		// must agree exactly.
		canon := dec.Marshal()
		bank2, err := NewEHBank(dec.Config(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := bank2.UnmarshalCell(0, canon); err != nil {
			t.Fatalf("bank rejected canonical encoding: %v", err)
		}
		requireBanksOrdered(t, bank2)
		if got := bank2.EstimateRange(0, bank2.Config().Length); got != w {
			t.Fatalf("bank re-decoded EstimateWindow %v, EH %v", got, w)
		}
		if got := bank2.EstimateSince(0, dec.Now()/2); got != dec.EstimateSince(dec.Now()/2) {
			t.Fatalf("bank re-decoded EstimateSince %v, EH %v", got, dec.EstimateSince(dec.Now()/2))
		}
		dec.Add(dec.Now() + 1)
		_ = dec.EstimateSince(0)
	})
}

// FuzzMarshal drives the per-object EH and a flat-bank cell with the same
// arbitrary gap/count stream and checks the full serialization contract:
// both engines emit byte-identical encodings, and decoding that encoding —
// into either engine — reproduces the original answers. This is the
// regression net for the arena layout: any divergence in cascade, expiry or
// wire order shows up as a mismatch here.
func FuzzMarshal(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 5}, uint16(50))
	f.Add([]byte{0, 0, 0, 0}, uint16(0))
	f.Add([]byte{255, 1, 255, 1, 9, 9, 9}, uint16(1000))
	f.Fuzz(func(t *testing.T, gaps []byte, since uint16) {
		cfg := Config{Length: 300, Epsilon: 0.15}
		h, err := NewEH(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bank, err := NewEHBank(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		var now Tick
		for _, g := range gaps {
			now += Tick(g % 11)
			n := uint64(g % 4) // n == 0 exercises the Advance path
			h.AddN(now, n)
			bank.AddN(1, now, n)
		}
		enc := h.Marshal()
		if got := bank.AppendMarshalCell(nil, 1); !bytes.Equal(got, enc) {
			t.Fatalf("bank encoding (%d bytes) differs from EH encoding (%d bytes)", len(got), len(enc))
		}
		dec, err := UnmarshalEH(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		bank2, err := NewEHBank(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := bank2.UnmarshalCell(0, enc); err != nil {
			t.Fatalf("bank round-trip decode failed: %v", err)
		}
		requireBanksOrdered(t, bank, bank2)
		q := Tick(since)
		want := h.EstimateSince(q)
		if got := dec.EstimateSince(q); got != want {
			t.Fatalf("decoded EH EstimateSince(%d) = %v, original %v", q, got, want)
		}
		if got := bank2.EstimateSince(0, q); got != want {
			t.Fatalf("decoded bank EstimateSince(%d) = %v, original %v", q, got, want)
		}
		if dec.Total() != h.Total() || bank2.Total(0) != h.Total() {
			t.Fatalf("total mismatch: original %d, EH %d, bank %d", h.Total(), dec.Total(), bank2.Total(0))
		}
	})
}

func FuzzUnmarshalDW(f *testing.F) {
	w, err := NewDW(Config{Length: 1000, Epsilon: 0.1, UpperBound: 2000})
	if err != nil {
		f.Fatal(err)
	}
	for i := Tick(1); i <= 500; i++ {
		w.Add(i)
	}
	fuzzSeeds(f, w.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := UnmarshalDW(data)
		if err != nil {
			return
		}
		if got := dec.EstimateWindow(); got < 0 {
			t.Fatalf("negative estimate %v", got)
		}
		dec.Add(dec.Now() + 1)
	})
}

func FuzzUnmarshalRW(f *testing.F) {
	w, err := NewRW(Config{Length: 1000, Epsilon: 0.25, Delta: 0.2, UpperBound: 2000, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	for i := Tick(1); i <= 300; i++ {
		w.Add(i)
	}
	fuzzSeeds(f, w.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := UnmarshalRW(data)
		if err != nil {
			return
		}
		if got := dec.EstimateWindow(); got < 0 {
			t.Fatalf("negative estimate %v", got)
		}
		dec.Add(dec.Now() + 1)
	})
}

// FuzzEHStream drives the histogram with arbitrary gap/count sequences and
// checks the accuracy invariant against the exact counter — the core
// correctness property under adversarial arrival patterns. An EHBank cell fed
// the same arrivals must keep its header naming the oldest bucket after every
// one and answer bit-identically to the histogram. The same stream, spread
// over rowCols columns and cut into rows of 1 + since>>10 events, must leave
// AddBatchRow's banks equal to AddN's (requireRowLoopIsAddN).
func FuzzEHStream(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 5}, uint16(50))
	f.Add([]byte{0, 0, 0, 0}, uint16(0))
	f.Add([]byte{255, 1, 255, 1}, uint16(1000))
	// Rows of 64 events spanning more than the window (about 7.5 ticks an
	// event), and rows of 9 over a few columns.
	f.Add(bytes.Repeat([]byte{8, 17, 26, 7, 16, 34, 44, 25, 62}, 30), uint16(63<<10|120))
	f.Add(bytes.Repeat([]byte{3, 9, 27, 81, 0, 2, 8, 200}, 20), uint16(8<<10|7))
	f.Fuzz(func(t *testing.T, gaps []byte, since uint16) {
		const eps = 0.2
		cfg := Config{Length: 400, Epsilon: eps}
		h, _ := NewEH(cfg)
		x, _ := NewExact(cfg)
		b, _ := NewEHBank(cfg, 1)
		rows := rowCutter{n: 1 + int(since>>10)}
		var now Tick
		for _, g := range gaps {
			now += Tick(g % 9)
			n := uint64(g%3 + 1)
			h.AddN(now, n)
			x.AddN(now, n)
			b.AddN(0, now, n)
			checkOldestCached(t, b, 0)
			rows.add(int32(g/9)%rowCols, max(now, 1), n)
		}
		requireRowLoopIsAddN(t, func() rowBank {
			rb, err := NewEHBank(cfg, 2*rowCols)
			if err != nil {
				t.Fatal(err)
			}
			return rb
		}, rows.rows, Tick(since))
		checkCellEqualsEH(t, b, 0, h)
		got := h.EstimateSince(Tick(since))
		if bank := b.EstimateSince(0, Tick(since)); math.Float64bits(bank) != math.Float64bits(got) {
			t.Fatalf("EstimateSince(%d): bank %v, EH %v", since, bank, got)
		}
		want := float64(x.CountSince(Tick(since)))
		if diff := got - want; diff > eps*want+0.5 || diff < -eps*want-0.5 {
			t.Fatalf("estimate %v vs exact %v exceeds ε=%v", got, want, eps)
		}
		if err := h.checkInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}

// rowBank is the part of EHBank and DWBank the row-loop fuzzers drive.
type rowBank interface {
	AddN(i int, t Tick, n uint64)
	AddBatchRow(base int, pos []int32, ticks []Tick, ns []uint64, order []int32)
	AppendMarshalCell(dst []byte, i int) []byte
	EstimateSince(i int, since Tick) float64
	VersionVector() (uint64, []uint64)
}

// rowCols is the row width of the row-loop fuzzers' banks, which hold two
// rows.
const rowCols = 3

// fuzzRow is one row of a fuzzed batch: event e inserts ns[e] arrivals at
// ticks[e] into column pos[e]. Before the row, every cell advances to adv
// (0: none).
type fuzzRow struct {
	adv   Tick
	pos   []int32
	ticks []Tick
	ns    []uint64
}

// rowCutter cuts a fuzzed event stream into rows of at most n events, and
// starts a new row at every advance. Ticks must be non-decreasing and ≥ 1,
// multiplicities ≥ 1: the engine's batch validation guarantees both before
// any row reaches a bank.
type rowCutter struct {
	n    int
	rows []fuzzRow
}

func (c *rowCutter) add(col int32, t Tick, n uint64) {
	if len(c.rows) == 0 || len(c.rows[len(c.rows)-1].pos) == c.n {
		c.rows = append(c.rows, fuzzRow{})
	}
	r := &c.rows[len(c.rows)-1]
	r.pos, r.ticks, r.ns = append(r.pos, col), append(r.ticks, t), append(r.ns, n)
}

func (c *rowCutter) advance(t Tick) { c.rows = append(c.rows, fuzzRow{adv: t}) }

// groupRowOrder is the order core's groupRow builds for a row: columns by
// their last event, latest first, each column's events in batch order.
func groupRowOrder(pos []int32) []int32 {
	var order []int32
	seen := map[int32]bool{}
	for e := len(pos) - 1; e >= 0; e-- {
		if seen[pos[e]] {
			continue
		}
		seen[pos[e]] = true
		for f, p := range pos {
			if p == pos[e] {
				order = append(order, int32(f))
			}
		}
	}
	return order
}

// requireRowLoopIsAddN applies rows to fresh banks of two rows of rowCols
// columns — row r at base (r mod 2)·rowCols — through AddBatchRow, once in
// batch order (nil order) and once in groupRowOrder, and alongside to a
// reference bank through AddN, visiting the events in the same order. Every
// cell's encoding and estimate since since, and the version vector, must
// equal the reference's, and the two orders must leave every cell's
// encoding alike. A row whose events are all unit arrivals passes a nil ns,
// as the engine does.
func requireRowLoopIsAddN(t *testing.T, fresh func() rowBank, rows []fuzzRow, since Tick) {
	t.Helper()
	var cells [2][][]byte
	for g, grouped := range []bool{false, true} {
		row, ref := fresh(), fresh()
		for r, fr := range rows {
			base := r % 2 * rowCols
			if fr.adv > 0 {
				for i := 0; i < 2*rowCols; i++ {
					row.AddN(i, fr.adv, 0)
					ref.AddN(i, fr.adv, 0)
				}
			}
			ns := fr.ns
			if !slices.ContainsFunc(ns, func(n uint64) bool { return n != 1 }) {
				ns = nil
			}
			var order []int32
			if grouped {
				order = groupRowOrder(fr.pos)
			}
			row.AddBatchRow(base, fr.pos, fr.ticks, ns, order)
			for k := range fr.pos {
				e := k
				if order != nil {
					e = int(order[k])
				}
				ref.AddN(base+int(fr.pos[e]), fr.ticks[e], fr.ns[e])
			}
		}
		for i := 0; i < 2*rowCols; i++ {
			got, want := row.AppendMarshalCell(nil, i), ref.AppendMarshalCell(nil, i)
			if !bytes.Equal(got, want) {
				t.Fatalf("grouped=%v cell %d: AddBatchRow encodes\n %x\nAddN\n %x", grouped, i, got, want)
			}
			if got, want := row.EstimateSince(i, since), ref.EstimateSince(i, since); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("grouped=%v cell %d: EstimateSince(%d) = %v after AddBatchRow, %v after AddN", grouped, i, since, got, want)
			}
			cells[g] = append(cells[g], got)
		}
		gv, gvers := row.VersionVector()
		wv, wvers := ref.VersionVector()
		if gv != wv || !slices.Equal(gvers, wvers) {
			t.Fatalf("grouped=%v: AddBatchRow versions %d %v, AddN %d %v", grouped, gv, gvers, wv, wvers)
		}
	}
	for i := range cells[0] {
		if !bytes.Equal(cells[0][i], cells[1][i]) {
			t.Fatalf("cell %d: groupRowOrder leaves other bytes than batch order", i)
		}
	}
}
