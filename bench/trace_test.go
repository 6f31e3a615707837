package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 100},
		// Nested: handler inside the client call, store call inside the handler.
		{ID: 2, Parent: 1, Layer: "server", Start: 10, End: 90},
		{ID: 3, Parent: 2, Layer: "store", Start: 20, End: 50},
		// Overlapping siblings (concurrent pulls): they cover 60..85 once.
		{ID: 4, Parent: 2, Layer: "store", Start: 60, End: 80},
		{ID: 5, Parent: 2, Layer: "store", Start: 70, End: 85},
		// A child that outlives its parent is clipped to it.
		{ID: 6, Layer: "refresh", Start: 200, End: 300},
		{ID: 7, Parent: 6, Layer: "pull", Start: 250, End: 400},
		// A span whose parent was never recorded stands alone.
		{ID: 8, Parent: 99, Layer: "store", Start: 500, End: 510},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 20, 2: 80 - 30 - 25, 3: 30, 4: 20, 5: 15, 6: 50, 7: 150, 8: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	budget := layerBudget(spans)
	if budget["store"] != 30+20+15+10 || budget["server"] != 25 || budget["client"] != 20 {
		t.Errorf("layer budget %v", budget)
	}
	// The client span's tree accounts for 20+25+30+20+15 of its 100: the
	// two overlapping store calls count their overlap twice.
	if got := closure(spans[:5]); got != 1.10 {
		t.Errorf("closure = %v, want 1.10", got)
	}
}

func TestTracerCandidateParent(t *testing.T) {
	tr := newTracer()
	if tr.candidate() != 0 {
		t.Error("no open span, yet a candidate parent")
	}
	tr.lastHandler.Store(5)
	tr.openHandlers.Store(1)
	if tr.candidate() != 5 {
		t.Error("one handler in flight must be the candidate")
	}
	tr.openHandlers.Store(2)
	if tr.candidate() != 0 {
		t.Error("two handlers in flight: the caller is ambiguous")
	}
	tr.openRefresh.Store(9)
	if tr.candidate() != 9 {
		t.Error("an open Refresh takes precedence")
	}
	tr.regime.Store("dense")
	if tr.tagged("pull") != "pull.dense" {
		t.Errorf("tagged = %q", tr.tagged("pull"))
	}
}
