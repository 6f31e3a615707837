package ecmsketch

import (
	"bytes"
	"fmt"
	"testing"
)

// writeOp is one step of the write-path log: an arrival, or (adv set) an
// engine-wide Advance to ev.Tick.
type writeOp struct {
	adv bool
	ev  Event
}

// writePathLog builds a deterministic log that exercises every clause of
// the write rule (see Event): tick 0 at stream start and mid-stream,
// N == 0, ticks that regress on any key — behind the engine clock and, on
// another stripe, behind its own stripe's clock or not, by up to more than
// a window — advances, and jumps that expire most of a window (W = 4096 in
// parallelShardedParams; the log spans more than two).
func writePathLog() []writeOp {
	ops := []writeOp{{ev: Event{Key: 5, Tick: 0, N: 2}}, {ev: Event{Key: 6, Tick: 0}}}
	tick := uint64(1)
	for i := 0; i < 900; i++ {
		tick += uint64(i % 3)
		key := uint64((i*37 + 11) % 97)
		ops = append(ops, writeOp{ev: Event{Key: key, Tick: tick, N: uint64(i % 4)}})
		switch {
		case i%16 == 15:
			ops = append(ops, writeOp{ev: Event{Key: key, Tick: tick - 5, N: 1}})
		case i%7 == 3:
			back := min(tick, uint64(i*131%5000))
			ops = append(ops, writeOp{ev: Event{Key: (key*13 + 7) % 97, Tick: tick - back, N: 0}})
		case i%23 == 11:
			ops = append(ops, writeOp{ev: Event{Key: key + 2, Tick: 0, N: 0}})
		case i%50 == 49:
			tick += 30
			ops = append(ops,
				writeOp{adv: true, ev: Event{Tick: tick}},
				writeOp{ev: Event{Key: key + 1, Tick: tick - 10}})
		case i%100 == 77:
			tick += 1500
		}
	}
	return ops
}

// feedWriteOps applies ops[lo:hi] to sh through the write path mode selects:
// "addn" feeds every arrival as a single AddN, "batch1" as a one-event
// AddBatch, "striped" as batches of up to 32 (cut at advances), and "mixed"
// alternates striped batches with runs of single AddNs.
func feedWriteOps(sh *Sharded, ops []writeOp, mode string) {
	var chunk []Event
	chunks := 0
	flush := func() {
		if len(chunk) == 0 {
			return
		}
		if mode == "striped" || chunks%2 == 0 {
			sh.AddBatch(chunk)
		} else {
			for _, ev := range chunk {
				sh.AddN(ev.Key, ev.Tick, ev.N)
			}
		}
		chunks++
		chunk = chunk[:0]
	}
	for _, op := range ops {
		switch {
		case op.adv:
			flush()
			sh.Advance(op.ev.Tick)
		case mode == "addn":
			sh.AddN(op.ev.Key, op.ev.Tick, op.ev.N)
		case mode == "batch1":
			sh.AddBatch([]Event{op.ev})
		default:
			if chunk = append(chunk, op.ev); len(chunk) == 32 {
				flush()
			}
		}
	}
	flush()
}

// TestShardedWritePathsCoincide pins that the engine has one write path:
// the same log fed as single AddNs, as one-event batches, as striped
// batches, through an Async engine, and through a durable engine that
// crashes and recovers leaves every stripe byte-identical, with equal
// counts and equal delta cursors.
func TestShardedWritePathsCoincide(t *testing.T) {
	ops := writePathLog()
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v_shards=%d", algo, shards), func(t *testing.T) {
				mk := func(async bool, dc *DurabilityConfig) *Sharded {
					sh, err := NewSharded(ShardedConfig{
						Params: parallelShardedParams(algo), Shards: shards, Async: async, Durability: dc,
					})
					if err != nil {
						t.Fatalf("NewSharded: %v", err)
					}
					t.Cleanup(func() { sh.Close() })
					return sh
				}
				ref := mk(false, nil)
				feedWriteOps(ref, ops, "addn")

				for _, mode := range []string{"batch1", "striped", "mixed"} {
					sh := mk(false, nil)
					feedWriteOps(sh, ops, mode)
					requireSameStripes(t, mode, sh, ref)
				}

				async := mk(true, nil)
				feedWriteOps(async, ops, "mixed")
				async.Flush()
				requireSameStripes(t, "async", async, ref)

				// Crash after a checkpoint plus a WAL tail holding every record
				// shape, then recover: replay goes through the same seam.
				store := NewMemStore()
				dur := mk(false, &DurabilityConfig{Store: store})
				feedWriteOps(dur, ops[:len(ops)/2], "mixed")
				if err := dur.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				feedWriteOps(dur, ops[len(ops)/2:], "mixed")
				dur.Flush()
				dur.CloseAbrupt()
				rec := mk(false, &DurabilityConfig{Store: store})
				if st := rec.DurabilityStats(); !st.Recovered || st.ReplayedRecords == 0 {
					t.Fatalf("recovery replayed nothing: %+v", st)
				}
				requireSameStripes(t, "durable-recovered", rec, ref)
			})
		}
	}
}

// requireSameStripes compares got against want stripe by stripe, unsettled:
// encodings, arrival counts and the delta cursor's version vector.
func requireSameStripes(t *testing.T, name string, got, want *Sharded) {
	t.Helper()
	for i := range want.shards {
		g, w := &got.shards[i], &want.shards[i]
		g.mu.Lock()
		gEnc := g.sk.Marshal()
		g.mu.Unlock()
		w.mu.Lock()
		wEnc := w.sk.Marshal()
		w.mu.Unlock()
		if !bytes.Equal(gEnc, wEnc) {
			t.Fatalf("%s: stripe %d encoding differs from single-AddN ingest (%d vs %d bytes)", name, i, len(gEnc), len(wEnc))
		}
	}
	if g, w := got.Count(), want.Count(); g != w {
		t.Fatalf("%s: count %d, want %d", name, g, w)
	}
	_, gc, _, err := got.DeltaSnapshot(Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	_, wc, _, err := want.DeltaSnapshot(Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gc.Vers) != fmt.Sprint(wc.Vers) {
		t.Fatalf("%s: delta cursor %v, want %v", name, gc.Vers, wc.Vers)
	}
}
