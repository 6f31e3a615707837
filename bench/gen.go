package main

import (
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"ecmsketch"
	"ecmsketch/internal/hashing"
	"ecmsketch/internal/workload"
)

// The common operating point: ecmserve's flag defaults unless stated.
const (
	opEpsilon     = 0.02
	opDelta       = 0.01
	opWindow      = 1 << 17 // ticks
	opShards      = 4       // fixed, so stripe count does not vary with the host
	opHashSeed    = 1       // the sketch's hash seed; -seed drives only the generators
	eventsPerTick = 8       // so the exact in-window total over a range r is 8·r
	zipfSkew      = 1.0
	zipfRanks     = 1 << 16
	preloadBatch  = 1024
)

// Generator stream numbers: each consumer of randomness draws from its own
// stream of the run's seed, so adding a consumer never shifts another's keys.
const (
	streamPreload = 0
	streamClient  = 1   // + client index
	streamLeaf    = 100 // + leaf index
)

// keyStream draws Zipf-distributed keys: rank → key by hashing.KeyUint64.
type keyStream struct{ z *workload.Zipf }

func newKeyStream(seed int64, stream int) *keyStream {
	rng := rand.New(rand.NewSource(int64(hashing.Mix64(uint64(seed)*1_000_003 + uint64(stream)))))
	z, err := workload.NewZipf(rng, zipfSkew, zipfRanks)
	if err != nil {
		panic(err) // constants above are in range
	}
	return &keyStream{z: z}
}

func (ks *keyStream) next() uint64 { return hashing.KeyUint64(ks.z.Sample()) }

// newRing pre-samples a generator goroutine's keys, so the measured phase
// does no sampling.
func newRing(seed int64, stream, n int) []uint64 {
	ks := newKeyStream(seed, stream)
	ring := make([]uint64, n)
	for i := range ring {
		ring[i] = ks.next()
	}
	return ring
}

// fillEvents writes len(dst) events whose keys continue the ring at pos and
// whose ticks continue after tick base at eventsPerTick events per tick; it
// returns the advanced ring position.
func fillEvents(dst []ecmsketch.Event, ring []uint64, pos int, base uint64) int {
	for i := range dst {
		dst[i] = ecmsketch.Event{Key: ring[pos], Tick: base + uint64(i/eventsPerTick) + 1, N: 1}
		if pos++; pos == len(ring) {
			pos = 0
		}
	}
	return pos
}

// tickClock hands out disjoint tick blocks to concurrent generators.
type tickClock struct{ next atomic.Uint64 }

// claim reserves ticks (base, base+n] and returns base.
func (tc *tickClock) claim(n uint64) uint64 { return tc.next.Add(n) - n }

// preloadEvents generates the first n events of a seed's preload stream:
// ticks 1, 1, ..., 2, ... at eventsPerTick per tick.
func preloadEvents(seed int64, stream, n int) []ecmsketch.Event {
	ks := newKeyStream(seed, stream)
	evs := make([]ecmsketch.Event, n)
	for i := range evs {
		evs[i] = ecmsketch.Event{Key: ks.next(), Tick: uint64(i/eventsPerTick) + 1, N: 1}
	}
	return evs
}

// streamHash fingerprints a generated event sequence (determinism tests).
func streamHash(evs []ecmsketch.Event) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, ev := range evs {
		for i := 0; i < 8; i++ {
			b[i] = byte(ev.Key >> (8 * i))
			b[8+i] = byte(ev.Tick >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// exactTotal is the exact number of arrivals within the last r ticks of a
// stream that has delivered perTick events on every tick up to now.
func exactTotal(r, now uint64, perTick int) float64 {
	if r > now {
		r = now
	}
	return float64(r) * float64(perTick)
}
