package core

// Parallel cell merging. Merge and PatchMerged re-derive destination cells
// one at a time, and each cell's output is a deterministic function of (that
// cell's input content, the merged clock) — cells are independent. The
// destination arena is not: appending a bucket may grow the shared slab or
// re-lay the level directories, and every mutation stamps the bank-wide
// version counter. So workers never touch the destination. Each worker folds
// a contiguous chunk of the cell list into a private chunk-sized scratch
// bank and encodes every merged cell in the bare per-cell wire form; a
// short sequential graft then replays the delta receiver's reset+decode
// path into the destination. Encode→decode reproduces a cell's canonical
// structure exactly (the producer/receiver equivalence the delta protocol
// pins), so the patched sketch Marshals byte-identically to the sequential
// replay — the equivalence TestParallelMergeByteIdentical gates.
//
// Version stamps are not part of Marshal output and absolute values differ
// between the two paths (replay and decode bump the counter a different
// number of times); what delta serving needs — every re-derived cell
// stamped above any previously issued cursor — holds on both, because both
// mutate exactly the re-derived cells.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ecmsketch/internal/window"
)

// mergeProcs caps the merge/patch worker pool; 0 means automatic
// (GOMAXPROCS), which is what every binary runs. Only the byte-identity
// tests set it, to force the sequential and parallel twins; it is atomic
// because merges on other goroutines read it.
var mergeProcs atomic.Int64

// SetMergeParallelism caps the number of worker goroutines Merge and
// PatchMerged fan cell replay across. n <= 0 restores the automatic choice
// (GOMAXPROCS at call time). 1 forces the sequential path — the twin the
// byte-identity tests compare against.
func SetMergeParallelism(n int) {
	if n < 0 {
		n = 0
	}
	mergeProcs.Store(int64(n))
}

// MergeParallelism reports the configured worker cap (0 = automatic).
func MergeParallelism() int { return int(mergeProcs.Load()) }

// minCellsPerMergeWorker keeps small patches sequential: below this many
// cells per worker the scratch-bank setup and graft cost more than the
// replay they parallelize.
const minCellsPerMergeWorker = 64

// MergeWorkersFor reports how many workers a merge or patch over ncells
// cells would fan across under the current configuration — 1 means the
// sequential path. Exposed so callers can report effective parallelism
// (coordinator refresh stats) without threading a value out of PatchMerged.
func MergeWorkersFor(ncells int) int {
	p := int(mergeProcs.Load())
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if lim := ncells / minCellsPerMergeWorker; p > lim {
		p = lim
	}
	if p < 1 {
		p = 1
	}
	return p
}

// applyMergeCells re-derives the destination cells named by cells (every
// cell when all) from the inputs at merged clock now. reset empties each
// cell first, as PatchMerged requires on a live destination; Merge passes
// false for its virgin output bank. Parallel when the cell count warrants
// it, byte-identical to the sequential replay either way.
func applyMergeCells(dst *Sketch, inputs []*Sketch, cells []int, all bool, now Tick, reset bool) {
	count := len(cells)
	if all {
		count = dst.d * dst.w
	}
	if w := MergeWorkersFor(count); w > 1 {
		if applyMergeCellsParallel(dst, inputs, cells, all, now, w) == nil {
			return
		}
		// A worker failed (scratch construction or a graft decode): fall
		// back to the in-place replay. Cells the graft already replaced are
		// re-derived from scratch, so the fallback must reset even on a
		// virgin destination.
		reset = true
	}
	applyMergeCellsSeq(dst, inputs, cells, all, now, reset)
}

// applyMergeCellsSeq is the single-goroutine replay: reset (when asked) and
// re-merge each destination cell in place, in cell order.
func applyMergeCellsSeq(dst *Sketch, inputs []*Sketch, cells []int, all bool, now Tick, reset bool) {
	n := dst.d * dst.w
	forEach := func(merge func(idx int)) {
		if all {
			for idx := 0; idx < n; idx++ {
				if reset {
					dst.bank.ResetCell(idx)
				}
				merge(idx)
			}
			return
		}
		for _, idx := range cells {
			if reset {
				dst.bank.ResetCell(idx)
			}
			merge(idx)
		}
	}
	switch {
	case dst.eh != nil:
		ins := ehBanks(inputs)
		forEach(func(idx int) { dst.eh.MergeCell(idx, now, ins) })
	case dst.dw != nil:
		ins := make([]*window.DWBank, len(inputs))
		for k, in := range inputs {
			ins[k] = in.dw
		}
		forEach(func(idx int) { dst.dw.MergeCell(idx, now, ins) })
	default:
		ins := make([]*window.RWBank, len(inputs))
		for k, in := range inputs {
			ins[k] = in.rw
		}
		forEach(func(idx int) { dst.rw.MergeCell(idx, ins) })
	}
}

func ehBanks(inputs []*Sketch) []*window.EHBank {
	ins := make([]*window.EHBank, len(inputs))
	for k, in := range inputs {
		ins[k] = in.eh
	}
	return ins
}

// mergeChunk is one worker's contiguous share of the cell list and its
// encoded output: buf holds the bare cell encodings back to back, ends[j]
// the end offset of the chunk's j-th cell.
type mergeChunk struct {
	lo, hi int
	buf    []byte
	ends   []int
	err    error
}

// applyMergeCellsParallel fans the per-cell replay across workers private
// scratch banks (phase 1, parallel — inputs are only read) and grafts the
// encoded results into dst through the delta receiver's reset+decode path
// (phase 2, sequential, cheap: decode is a structured copy, not a replay).
// On error dst may be partially grafted; the caller re-runs the sequential
// replay, which re-derives every cell whole.
func applyMergeCellsParallel(dst *Sketch, inputs []*Sketch, cells []int, all bool, now Tick, workers int) error {
	count := len(cells)
	if all {
		count = dst.d * dst.w
	}
	cellAt := func(i int) int {
		if all {
			return i
		}
		return cells[i]
	}

	chunks := make([]mergeChunk, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		chunks[w].lo = count * w / workers
		chunks[w].hi = count * (w + 1) / workers
		wg.Add(1)
		go func(ch *mergeChunk) {
			defer wg.Done()
			ch.err = mergeChunkCells(ch, dst, inputs, cellAt, now)
		}(&chunks[w])
	}
	wg.Wait()
	for w := range chunks {
		if chunks[w].err != nil {
			return chunks[w].err
		}
	}
	for w := range chunks {
		ch := &chunks[w]
		start := 0
		for j, end := range ch.ends {
			idx := cellAt(ch.lo + j)
			dst.bank.ResetCell(idx)
			if err := dst.bank.UnmarshalCell(idx, ch.buf[start:end]); err != nil {
				return err
			}
			start = end
		}
	}
	return nil
}

// mergeChunkCells merges one chunk's cells into a private scratch bank and
// encodes each merged cell into ch.buf. The scratch bank is chunk-sized:
// local cell j holds the merge of the inputs' cell cellAt(ch.lo+j).
func mergeChunkCells(ch *mergeChunk, dst *Sketch, inputs []*Sketch, cellAt func(int) int, now Tick) error {
	n := ch.hi - ch.lo
	if n == 0 {
		return nil
	}
	ch.ends = make([]int, 0, n)
	switch {
	case dst.eh != nil:
		scratch, err := window.NewEHBank(dst.wcfg, n)
		if err != nil {
			return err
		}
		ins := ehBanks(inputs)
		scratch.ReserveMerge(ins, n, func(j int) int { return cellAt(ch.lo + j) })
		var bs []window.Bucket
		for j := 0; j < n; j++ {
			scratch.MergeCellFrom(j, cellAt(ch.lo+j), now, ins)
			ch.buf, bs = scratch.AppendMarshalCellBare(ch.buf, j, bs)
			ch.ends = append(ch.ends, len(ch.buf))
		}
	case dst.dw != nil:
		scratch, err := window.NewDWBank(dst.wcfg, n)
		if err != nil {
			return err
		}
		ins := make([]*window.DWBank, len(inputs))
		for k, in := range inputs {
			ins[k] = in.dw
		}
		for j := 0; j < n; j++ {
			scratch.MergeCellFrom(j, cellAt(ch.lo+j), now, ins)
			ch.buf = scratch.AppendMarshalCellBare(ch.buf, j)
			ch.ends = append(ch.ends, len(ch.buf))
		}
	default:
		scratch, err := window.NewRWBank(dst.wcfg, n)
		if err != nil {
			return err
		}
		ins := make([]*window.RWBank, len(inputs))
		for k, in := range inputs {
			ins[k] = in.rw
		}
		for j := 0; j < n; j++ {
			scratch.MergeCellFrom(j, cellAt(ch.lo+j), ins)
			ch.buf = scratch.AppendMarshalCellBare(ch.buf, j)
			ch.ends = append(ch.ends, len(ch.buf))
		}
	}
	return nil
}
