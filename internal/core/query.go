package core

import (
	"errors"
	"math"
)

// QueryBatch is a multi-key sliding-window query request: point estimates
// for every key in Keys, plus optionally the total count and the self-join
// size, all evaluated over the same window suffix. Batching queries is the
// read-side counterpart of batching Events on ingest: one QueryBatch is
// answered from one consistent cut of the stream, where the equivalent
// sequence of single-key calls on a concurrent engine could interleave with
// writers and observe a different state per call.
type QueryBatch struct {
	// Keys are the point-query keys; Estimates in the result aligns with
	// this slice index by index. Empty is allowed (e.g. total-only queries).
	Keys []uint64
	// Range is the window suffix r to evaluate, in ticks; 0 means the whole
	// window.
	Range Tick
	// Total requests an EstimateTotal (‖a_r‖₁) alongside the point answers.
	Total bool
	// SelfJoin requests a SelfJoin (F₂) estimate alongside the point answers.
	SelfJoin bool
}

// QueryResult answers a QueryBatch.
type QueryResult struct {
	// Estimates holds one point estimate per requested key, in request order.
	Estimates []float64
	// Total is the ‖a_r‖₁ estimate; meaningful only if requested.
	Total float64
	// SelfJoin is the F₂ estimate; meaningful only if requested.
	SelfJoin float64
	// Now is the engine clock the answers were evaluated at.
	Now Tick
	// Range is the resolved window suffix (the request's Range, with 0
	// replaced by the window length).
	Range Tick
}

// QueryBatch answers a multi-key query in one pass. Point answers are
// exactly Estimate(key, r) for each key; when both Total and SelfJoin are
// requested they share a single sweep over the counter array (half the cell
// evaluations of two separate calls) while remaining bit-identical to
// EstimateTotal and SelfJoin run back to back.
//
// The error return exists for the BatchQuerier contract shared with
// concurrent and remote front ends; a local sketch never fails.
func (s *Sketch) QueryBatch(q QueryBatch) (QueryResult, error) {
	r := q.Range
	if r == 0 {
		r = s.wcfg.Length
	}
	res := QueryResult{Now: s.now, Range: r}
	if len(q.Keys) > 0 {
		res.Estimates = make([]float64, len(q.Keys))
		for i, key := range q.Keys {
			res.Estimates[i] = s.Estimate(key, r)
		}
	}
	switch {
	case q.Total && q.SelfJoin:
		res.Total, res.SelfJoin = s.totalAndSelfJoin(r)
	case q.Total:
		res.Total = s.EstimateTotal(r)
	case q.SelfJoin:
		res.SelfJoin = s.SelfJoin(r)
	}
	return res, nil
}

// ErrDirectAggregates rejects Total/SelfJoin on the direct read path, in one
// wording for every front end.
var ErrDirectAggregates = errors.New("ecmsketch: direct reads answer point queries only (request total/selfJoin without direct, i.e. through QueryBatch)")

// QueryDirect answers the point-only form of QueryBatch. A single sketch
// has no stripes: every key already reads its own cells with zero merge
// error, so the direct read and the consistent batch coincide. The method
// exists so local sketches satisfy the same DirectQuerier contract the
// sharded engine exposes, including its aggregate rejection — a caller
// switching a front end never has a query class silently change meaning.
func (s *Sketch) QueryDirect(q QueryBatch) (QueryResult, error) {
	if q.Total || q.SelfJoin {
		return QueryResult{}, ErrDirectAggregates
	}
	return s.QueryBatch(q)
}

// totalAndSelfJoin evaluates every counter once and derives both the
// ‖a_r‖₁ and F₂ estimates, with the same per-row accumulation order (and
// hence bit-identical results) as EstimateTotal and SelfJoin run separately.
func (s *Sketch) totalAndSelfJoin(r Tick) (total, selfJoin float64) {
	bestSum := math.Inf(1)
	bestSq := math.Inf(1)
	for j := 0; j < s.d; j++ {
		var sum, sq float64
		for i := 0; i < s.w; i++ {
			v := s.cellEstimateRange(j*s.w+i, r)
			sum += v
			if v != 0 {
				sq += v * v
			}
		}
		if sum < bestSum {
			bestSum = sum
		}
		if sq < bestSq {
			bestSq = sq
		}
	}
	if math.IsInf(bestSum, 1) {
		bestSum = 0
	}
	return bestSum, bestSq
}
