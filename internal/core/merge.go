package core

import (
	"errors"
	"fmt"

	"ecmsketch/internal/hashing"
	"ecmsketch/internal/window"
)

// Merge performs the order-preserving aggregation CM⊕ = CM₁ ⊕ ... ⊕ CMₙ of
// Section 5.3: counter (i,j) of the output is the ⊕-aggregation of counter
// (i,j) of every input. All inputs must be identically configured (same
// dimensions, hash functions, window configuration and synopsis algorithm).
//
// For exponential-histogram and deterministic-wave sketches the aggregation
// is the deterministic replay of Section 5.1 and inflates the window error
// to ε_sw + ε'_sw + ε_sw·ε'_sw per counter (the Count-Min error ε_cm is
// unaffected, since the array dimensions are fixed). For randomized-wave
// sketches the aggregation is lossless (Section 5.2). Count-based sketches
// cannot be aggregated at all; Merge rejects them.
func Merge(inputs ...*Sketch) (*Sketch, error) {
	if err := checkMergeable(inputs); err != nil {
		return nil, err
	}
	first := inputs[0]
	out, err := New(first.params)
	if err != nil {
		return nil, err
	}
	var now Tick
	out.salt, now, out.count = mergedScalars(inputs)
	// Replay every input cell straight into the output arena (EH/DW: the
	// Theorem 4 half/half replay, tick-ordered across inputs; RW: the
	// lossless position-wise union of Section 5.2). Cells are independent,
	// so large arrays fan the replay across a bounded worker pool; the
	// output is byte-identical to the sequential cell loop either way (see
	// parallel.go).
	applyMergeCells(out, inputs, nil, true, now, false)
	out.Advance(now)
	return out, nil
}

// mergedScalars folds the inputs' sketch-level fields into a merge output's:
// the latest clock, the summed arrival count, and an identifier salt derived
// deterministically from the inputs' in order. New assigns every sketch a
// fresh process-local salt, which would make merged encodings differ run to
// run in that one field; merged summaries must be reproducible byte-for-byte
// across processes and transports — the coordinator's cross-transport
// equivalence contract — while the mixing still gives the output an ID space
// distinct from each input's for any future randomized-wave ingest.
func mergedScalars(inputs []*Sketch) (salt uint64, now Tick, count uint64) {
	salt = 0x9e37_79b9_7f4a_7c15
	for _, in := range inputs {
		salt = hashing.Mix64(salt ^ in.salt)
		now = max(now, in.now)
		count += in.count
	}
	return salt, now, count
}

// checkMergeable reports why Merge would refuse inputs, or nil.
func checkMergeable(inputs []*Sketch) error {
	if len(inputs) == 0 {
		return errors.New("core: Merge requires at least one input")
	}
	first := inputs[0]
	for i, in := range inputs[1:] {
		if in == nil {
			return fmt.Errorf("core: Merge input %d is nil", i+1)
		}
		if !first.Compatible(in) {
			return fmt.Errorf("core: Merge input %d incompatible with input 0", i+1)
		}
	}
	if first.params.Algorithm != window.AlgoRW && first.wcfg.Model != window.TimeBased {
		return errors.New("core: order-preserving aggregation requires time-based windows")
	}
	return nil
}

// MergedPointErrorBound bounds the point-query error factor of a sketch
// produced by Merge from sketches with window error epsSW and Count-Min
// error epsCM: the window error inflates to ε_sw+ε'_sw+ε_swε'_sw (here with
// ε'_sw = ε_sw), and the total follows Section 5.3.
func MergedPointErrorBound(s Split) float64 {
	esw := window.MergedRelativeError(s.EpsSW, s.EpsSW)
	return esw + s.EpsCM + esw*s.EpsCM
}

// HierarchicalPointErrorBound bounds the point-query error factor after h
// levels of hierarchical aggregation (Section 5.1 multi-level analysis
// applied to every counter).
func HierarchicalPointErrorBound(s Split, h int) float64 {
	esw := window.MultiLevelRelativeError(s.EpsSW, h)
	return esw + s.EpsCM + esw*s.EpsCM
}
