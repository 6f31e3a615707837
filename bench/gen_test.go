package main

import (
	"testing"

	"ecmsketch"
)

// The same seed gives the same inputs; another seed gives others.
func TestGeneratorDeterminism(t *testing.T) {
	const n = 1 << 20
	a := streamHash(preloadEvents(7, streamPreload, n))
	if b := streamHash(preloadEvents(7, streamPreload, n)); a != b {
		t.Errorf("seed 7 generated two different streams: %x, %x", a, b)
	}
	if c := streamHash(preloadEvents(8, streamPreload, n)); a == c {
		t.Error("seeds 7 and 8 generated the same stream")
	}
	if streamHash(preloadEvents(7, streamPreload, 1<<10)) == streamHash(preloadEvents(7, streamClient, 1<<10)) {
		t.Error("two streams of one seed generated the same events")
	}
}

func TestFillEventsContinuesRingAndTicks(t *testing.T) {
	ring := []uint64{10, 11, 12}
	evs := make([]ecmsketch.Event, 2*eventsPerTick)
	pos := fillEvents(evs, ring, 2, 100)
	if pos != (2+len(evs))%len(ring) {
		t.Errorf("ring position %d, want %d", pos, (2+len(evs))%len(ring))
	}
	if evs[0].Key != 12 || evs[1].Key != 10 {
		t.Errorf("keys %d, %d do not continue the ring at 2 and wrap", evs[0].Key, evs[1].Key)
	}
	if evs[0].Tick != 101 || evs[eventsPerTick-1].Tick != 101 || evs[eventsPerTick].Tick != 102 {
		t.Errorf("ticks %d..%d, %d: want %d events on tick 101, then 102", evs[0].Tick, evs[eventsPerTick-1].Tick, evs[eventsPerTick].Tick, eventsPerTick)
	}
	var tc tickClock
	tc.next.Store(100)
	if a, b := tc.claim(64), tc.claim(64); a != 100 || b != 164 {
		t.Errorf("claims start at %d and %d, want 100 and 164", a, b)
	}
}
