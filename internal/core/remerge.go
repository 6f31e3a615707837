package core

// Incremental re-merge: maintain an existing Merge output in place instead
// of re-merging P-ways every interval. PatchMerged re-derives exactly the
// cells named by the change feed and re-advances the rest, and the result is
// byte-identical (Marshal) to a from-scratch Merge over the same inputs —
// the equivalence the coordinator's incremental refresh and the DeltaState
// materialize cache are pinned against.
//
// Why patching is exact: Merge's per-cell output is a deterministic function
// of (that cell's input lists, the merged clock). A cell whose input lists
// did not change replays to the same pre-advance state it had last interval,
// and window expiry is monotone in the clock — advancing the retained state
// from the old merged clock to the new one drops exactly the content a
// from-scratch replay followed by a single advance would drop. So unchanged
// cells need only the advance, and changed cells need only their own replay.
// (This holds for the flat P-way Merge; the pairwise AggregateTree shape
// re-replays already-merged histograms, whose half/half splits are not
// stable under patching — which is why the incremental path is defined
// against Merge and the coordinator's Refresh merges flat.)

import (
	"errors"
	"fmt"
	"slices"
)

// PatchMerged updates dst — a sketch produced by Merge(inputs...) — to the
// inputs' current state, given the indices of every cell whose content
// changed in any input since dst was produced (or all == true when cell
// granularity was lost). cells may hold duplicates and need not be sorted.
// Input order must match the order dst was merged in: the merged identifier
// salt folds over inputs in sequence.
//
// Mutated cells bump dst's bank version and per-cell stamps like any other
// arrival mutation, so a dst serving delta snapshots advertises exactly the
// patched cells to its own pullers; clock-driven expiry on untouched cells
// deliberately does not bump versions (receivers replay expiry themselves)
// but is reported to note, when non-nil, for the change feed.
//
// On error dst is unmodified: validation happens before the first mutation.
func PatchMerged(dst *Sketch, inputs []*Sketch, cells []int, all bool, note func(int)) error {
	if dst == nil || len(inputs) == 0 {
		return errors.New("core: PatchMerged requires a destination and at least one input")
	}
	for i, in := range inputs {
		if in == nil {
			return fmt.Errorf("core: PatchMerged input %d is nil", i)
		}
		if !dst.Compatible(in) {
			return fmt.Errorf("core: PatchMerged input %d incompatible with destination", i)
		}
	}

	salt, now, count := mergedScalars(inputs)

	n := dst.d * dst.w
	if !all {
		cells = slices.Clone(cells)
		slices.Sort(cells)
		cells = slices.Compact(cells)
		for _, idx := range cells {
			if idx < 0 || idx >= n {
				return fmt.Errorf("core: PatchMerged cell index %d out of range", idx)
			}
		}
	}
	// Re-derive the changed cells: reset and replay each one, fanned across
	// a bounded worker pool when the patch is large enough to warrant it
	// (byte-identical to the sequential replay either way; see parallel.go).
	applyMergeCells(dst, inputs, cells, all, now, true)
	dst.salt = salt
	dst.count = count
	dst.seq = 0
	dst.now = now
	dst.AdvanceNoting(now, note)
	return nil
}
