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
//
// This is the one place outside construction and ingest that asks which
// algorithm a sketch runs: a merge reads same-kind inputs through their
// concrete bank type, so the pass below is instantiated once per call for
// whichever it is.
func applyMergeCells(dst *Sketch, inputs []*Sketch, cells []int, all bool, now Tick, reset bool) {
	p := mergePlan{cells: cells, all: all, now: now, reset: reset, count: len(cells)}
	if all {
		p.count = dst.d * dst.w
	}
	switch {
	case dst.eh != nil:
		ins := banksOf(inputs, func(s *Sketch) *window.EHBank { return s.eh })
		mergePass[*window.EHBank]{p, dst.eh, ins, window.NewEHBank, (*window.EHBank).ReserveMerge}.run()
	case dst.dw != nil:
		ins := banksOf(inputs, func(s *Sketch) *window.DWBank { return s.dw })
		mergePass[*window.DWBank]{p, dst.dw, ins, window.NewDWBank, nil}.run()
	default:
		ins := banksOf(inputs, func(s *Sketch) *window.RWBank { return s.rw })
		mergePass[*window.RWBank]{p, dst.rw, ins, window.NewRWBank, nil}.run()
	}
}

func banksOf[B any](inputs []*Sketch, of func(*Sketch) B) []B {
	ins := make([]B, len(inputs))
	for k, in := range inputs {
		ins[k] = of(in)
	}
	return ins
}

// mergePlan names the cells one merge pass re-derives: cells[0:count], or
// cells 0..count-1 when all.
type mergePlan struct {
	cells []int
	all   bool
	count int
	now   Tick
	reset bool
}

func (p *mergePlan) cellAt(j int) int {
	if p.all {
		return j
	}
	return p.cells[j]
}

// mergeBank is a concrete bank type B seen from the merge pass: the Bank
// contract plus the one operation that reads other banks of its own kind.
type mergeBank[B any] interface {
	window.Bank
	MergeCellFrom(i, src int, now Tick, ins []B)
}

// mergePass is one merge pass over banks of kind B: the plan, the
// destination and the inputs, the constructor of the same-kind scratch banks
// the parallel path merges into, and — when the kind has one — the function
// that presizes an empty bank for the cells about to be merged into it.
type mergePass[B mergeBank[B]] struct {
	mergePlan
	dst     B
	ins     []B
	newBank func(window.Config, int) (B, error)
	reserve func(b B, ins []B, n int, src func(j int) int)
}

func (p mergePass[B]) run() {
	if p.reserve != nil && !p.reset {
		p.reserve(p.dst, p.ins, p.count, p.cellAt)
	}
	if workers := MergeWorkersFor(p.count); workers > 1 {
		if p.runParallel(workers) == nil {
			return
		}
		// A worker failed (scratch construction or a graft decode): fall
		// back to the in-place replay. Cells the graft already replaced are
		// re-derived from scratch, so the fallback must reset even on a
		// virgin destination.
		p.reset = true
	}
	// The single-goroutine replay: reset (when asked) and re-merge each
	// destination cell in place, in cell order.
	for j := 0; j < p.count; j++ {
		idx := p.cellAt(j)
		if p.reset {
			p.dst.ResetCell(idx)
		}
		p.dst.MergeCellFrom(idx, idx, p.now, p.ins)
	}
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

// runParallel fans the per-cell replay across workers' private scratch banks
// (phase 1, parallel — inputs are only read) and grafts the encoded results
// into dst through the delta receiver's reset+decode path (phase 2,
// sequential, cheap: decode is a structured copy, not a replay). On error dst
// may be partially grafted; the caller re-runs the sequential replay, which
// re-derives every cell whole.
func (p mergePass[B]) runParallel(workers int) error {
	chunks := make([]mergeChunk, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		chunks[w].lo = p.count * w / workers
		chunks[w].hi = p.count * (w + 1) / workers
		wg.Add(1)
		go func(ch *mergeChunk) {
			defer wg.Done()
			// The scratch bank is chunk-sized: local cell j holds the merge
			// of the inputs' cell cellAt(ch.lo+j).
			n := ch.hi - ch.lo
			src := func(j int) int { return p.cellAt(ch.lo + j) }
			scratch, err := p.newBank(p.dst.Config(), n)
			if err != nil {
				ch.err = err
				return
			}
			if p.reserve != nil {
				p.reserve(scratch, p.ins, n, src)
			}
			ch.ends = make([]int, 0, n)
			for j := 0; j < n; j++ {
				scratch.MergeCellFrom(j, src(j), p.now, p.ins)
				ch.buf = scratch.AppendMarshalCellBare(ch.buf, j)
				ch.ends = append(ch.ends, len(ch.buf))
			}
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
			idx := p.cellAt(ch.lo + j)
			p.dst.ResetCell(idx)
			if err := p.dst.UnmarshalCell(idx, ch.buf[start:end]); err != nil {
				return err
			}
			start = end
		}
	}
	return nil
}
