package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"ecmsketch/internal/window"
)

// deltaFuzzEpoch is fixed so that delta payloads in the seed corpus stay
// valid against the baseline every fuzz execution rebuilds.
const deltaFuzzEpoch = 0xE90C5EED

// deltaFuzzProducer is a deterministic delta producer of one part (a plain
// sketch, speaking 0xEC/0xED) or several (a striped engine in miniature,
// speaking 0xEE/0xEF the way Sharded frames them): small enough to rebuild
// per fuzz execution, with a window short enough that a few dozen events
// fill and expire it.
type deltaFuzzProducer struct {
	parts []*Sketch
	now   Tick
}

const deltaFuzzWindow = 64

func newDeltaFuzzProducer(tb testing.TB, algo window.Algorithm, nparts int) *deltaFuzzProducer {
	tb.Helper()
	p := &deltaFuzzProducer{}
	for i := 0; i < nparts; i++ {
		s, err := New(Params{Epsilon: 0.3, Delta: 0.3, Width: 4, Depth: 2, WindowLength: deltaFuzzWindow,
			UpperBound: 4 * deltaFuzzWindow, Seed: 11, Algorithm: algo})
		if err != nil {
			tb.Fatal(err)
		}
		s.SetEpoch(deltaFuzzEpoch)
		s.SetIDSalt(uint64(i) + 1)
		s.NormalizeCellSalts()
		p.parts = append(p.parts, s)
	}
	// A fixed prefix, so the baseline is never empty.
	for i := 0; i < 40; i++ {
		p.add(uint64(i%7), 1)
	}
	return p
}

// add routes one arrival of key, gap ticks after the previous one.
func (p *deltaFuzzProducer) add(key uint64, gap Tick) {
	p.now += gap
	if p.now == 0 {
		p.now = 1
	}
	p.parts[key%uint64(len(p.parts))].AddN(key, p.now, 1+key%3)
}

// pull answers one snapshot request the way the real producers do.
func (p *deltaFuzzProducer) pull(tb testing.TB, since Cursor) (payload []byte, cur Cursor, full bool) {
	tb.Helper()
	if len(p.parts) == 1 {
		payload, cur, full, err := p.parts[0].DeltaSnapshot(since)
		if err != nil {
			tb.Fatal(err)
		}
		return payload, cur, full
	}
	cur = Cursor{Epoch: deltaFuzzEpoch}
	delta := since.Epoch == deltaFuzzEpoch && len(since.Vers) == len(p.parts)
	for i, s := range p.parts {
		cur.Vers = append(cur.Vers, s.DeltaVersion())
		delta = delta && since.Vers[i] <= cur.Vers[i]
	}
	if !delta {
		encs := make([][]byte, len(p.parts))
		for i, s := range p.parts {
			s.Advance(p.now)
			encs[i] = s.MarshalSparse()
		}
		return EncodeMultiFull(deltaFuzzEpoch, p.now, encs), cur, true
	}
	var changed []PartDelta
	for i, s := range p.parts {
		if cur.Vers[i] != since.Vers[i] {
			changed = append(changed, PartDelta{Index: i, Payload: s.AppendDeltaSince(nil, deltaFuzzEpoch, since.Vers[i])})
		}
	}
	return EncodeMultiDelta(deltaFuzzEpoch, p.now, len(p.parts), changed), cur, false
}

// marshal is the producer's own full state at its clock: the sketch, or the
// merge of the parts settled to the engine clock.
func (p *deltaFuzzProducer) marshal(tb testing.TB) []byte {
	tb.Helper()
	if len(p.parts) == 1 {
		p.parts[0].Advance(p.now)
		return p.parts[0].Marshal()
	}
	snaps := make([]*Sketch, len(p.parts))
	for i, s := range p.parts {
		snap, err := s.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		snap.Advance(p.now)
		snaps[i] = snap
	}
	m, err := Merge(snaps...)
	if err != nil {
		tb.Fatal(err)
	}
	return m.Marshal()
}

// baseline pulls a full snapshot into a fresh receiver.
func (p *deltaFuzzProducer) baseline(tb testing.TB) *DeltaState {
	tb.Helper()
	st := &DeltaState{}
	payload, cur, full := p.pull(tb, Cursor{})
	if !full {
		tb.Fatal("zero cursor answered with a delta")
	}
	if err := st.Apply(payload, cur, full); err != nil {
		tb.Fatal(err)
	}
	return st
}

var deltaFuzzAlgos = []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW}

// FuzzDeltaApply fuzzes the receiving half of the delta protocol, the decoder
// behind every coordinator pull.
//
// Hostile half: data, framed under each of the three payload tags and under
// both a plausible and a stale cursor, is applied to a held baseline of the
// selected algorithm. Apply must not panic, and must leave the state either
// advanced to exactly the cursor it was handed, holding whole parts, or reset
// to "no baseline" — never a half-applied baseline in use.
//
// Honest half: data read as a stream of (key, gap) arrivals drives a producer
// past one window; after every few arrivals the receiver pulls with its
// cursor, applies, and must materialize byte-identically (Marshal) to the
// producer's own state — single-part and multipart.
func FuzzDeltaApply(f *testing.F) {
	for sel, algo := range deltaFuzzAlgos {
		for _, nparts := range []int{1, 2} {
			p := newDeltaFuzzProducer(f, algo, nparts)
			st := p.baseline(f)
			full, _, _ := p.pull(f, Cursor{})
			p.add(3, 2)
			p.add(4, deltaFuzzWindow) // expires the prefix
			delta, _, _ := p.pull(f, st.Cursor())
			for _, seed := range [][]byte{full, delta, delta[:len(delta)/2], full[:len(full)/3]} {
				f.Add(seed[min(1, len(seed)):], uint8(sel))
				mut := append([]byte(nil), seed...)
				mut[len(mut)/2] ^= 0x41
				f.Add(mut[min(1, len(mut)):], uint8(sel))
			}
		}
		f.Add([]byte{}, uint8(sel))
		f.Add(bytes.Repeat([]byte{0x07, 0x21, 0xF3, 0x10}, 40), uint8(sel))
	}
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		algo := deltaFuzzAlgos[int(sel)%len(deltaFuzzAlgos)]
		for _, tag := range []byte{wireDelta, wireMultiFull, wireMultiDelta} {
			nparts := 2
			if tag == wireDelta {
				nparts = 1
			}
			for _, stale := range []bool{false, true} {
				p := newDeltaFuzzProducer(t, algo, nparts)
				st := p.baseline(t)
				cur := st.Cursor() // stale: the version the state already holds
				if !stale {
					// The cursor an honest next pull would carry.
					p.add(3, 2)
					p.add(4, deltaFuzzWindow)
					_, cur, _ = p.pull(t, st.Cursor())
				}
				err := st.Apply(append([]byte{tag}, data...), cur, tag == wireMultiFull)
				if err != nil {
					if st.HasBaseline() || !st.Cursor().IsZero() {
						t.Fatalf("tag %#x: failed Apply left a baseline in use (cursor %v): %v", tag, st.Cursor(), err)
					}
					continue
				}
				if got := st.Cursor(); !st.HasBaseline() || got.String() != cur.String() {
					t.Fatalf("tag %#x: Apply succeeded but state is at cursor %v, not %v", tag, got, cur)
				}
				// The held parts must be whole sketches. They are not merged
				// here: the Theorem 4 replay costs one insert per unit of mass
				// a cell claims, so a forged bucket of size 2^40 — a valid
				// encoding — would stall the fuzzer, not fail it.
				for i, part := range st.parts {
					if _, err := Unmarshal(part.Marshal()); err != nil {
						t.Fatalf("tag %#x: applied part %d does not re-encode: %v", tag, i, err)
					}
				}
			}
		}

		for _, nparts := range []int{1, 2} {
			p := newDeltaFuzzProducer(t, algo, nparts)
			st := p.baseline(t)
			sync := func(step int) {
				payload, cur, full := p.pull(t, st.Cursor())
				if full {
					t.Fatalf("%d parts, step %d: a held cursor was answered with a full snapshot", nparts, step)
				}
				if err := st.Apply(payload, cur, full); err != nil {
					t.Fatalf("%d parts, step %d: %v", nparts, step, err)
				}
				m, err := st.Materialize()
				if err != nil {
					t.Fatalf("%d parts, step %d: %v", nparts, step, err)
				}
				if got, want := m.Marshal(), p.marshal(t); !bytes.Equal(got, want) {
					t.Fatalf("%d parts, step %d: delta reconstruction differs from the producer\n got  %x\n want %x", nparts, step, got, want)
				}
			}
			for i := 0; i+1 < len(data); i += 2 {
				p.add(uint64(data[i]%32), Tick(data[i+1]%16))
				if i%16 == 14 {
					sync(i)
				}
			}
			// Whatever the stream did, finish past one window: an idle
			// stretch that expires everything seen so far, then one arrival.
			sync(len(data))
			p.add(5, deltaFuzzWindow+1)
			sync(len(data) + 1)
		}
	})
}

// FuzzParseCursor holds the ?since= decoder, which reads whatever a puller
// sends: it never panics; what it accepts survives String and a second parse
// unchanged; every cursor an engine can issue round-trips; "" and "0" are the
// zero cursor.
func FuzzParseCursor(f *testing.F) {
	f.Add("", uint64(0), []byte(nil))
	f.Add("0", uint64(7), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(Cursor{Epoch: 1 << 63, Vers: []uint64{0, 1, 1 << 40}}.String(), uint64(1<<63), []byte("sixteen bytes .."))
	f.Add("AAA", uint64(0), []byte(nil))          // epoch 0, no parts: zero, spelled long
	f.Add("AYCAgIAQ", uint64(1), []byte(nil))     // declares 2^32 parts
	f.Add("not base64 !", uint64(1), []byte(nil)) // rejected before decoding
	f.Fuzz(func(t *testing.T, s string, epoch uint64, vers []byte) {
		same := func(a, b Cursor) bool { return a.Epoch == b.Epoch && slices.Equal(a.Vers, b.Vers) }
		if c, err := ParseCursor(s); err == nil {
			back, err := ParseCursor(c.String())
			if err != nil || !same(back, c) {
				t.Fatalf("%q parsed to %+v, whose String %q parsed to %+v, %v", s, c, c.String(), back, err)
			}
			if (s == "" || s == "0") && !c.IsZero() {
				t.Fatalf("%q parsed to %+v, want the zero cursor", s, c)
			}
		}
		c := Cursor{Epoch: epoch}
		for ; len(vers) >= 8 && len(c.Vers) < maxDeltaParts; vers = vers[8:] {
			c.Vers = append(c.Vers, binary.LittleEndian.Uint64(vers))
		}
		if back, err := ParseCursor(c.String()); err != nil || !same(back, c) {
			t.Fatalf("%+v rendered as %q parsed to %+v, %v", c, c.String(), back, err)
		}
	})
}
