package ecmsketch_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
)

// TestEngineBatchEquivalence is the property test behind the write rule
// (see Event): the plain Sketch, a one-stripe Sharded engine, a P-stripe
// Sharded engine, an Async engine and a server reached through ecmclient
// must produce IDENTICAL Estimate/SelfJoin/EstimateTotal answers for the
// same randomized stream, whether it is fed as batches or as single AddN
// calls — including regressed and zero ticks and N == 0, which every front
// end and every door admits the same way.
//
// Identity (not mere closeness) holds because ε is small relative to the
// stream: no size-class ever exceeds its budget, so no bucket merges happen
// in any engine, stripe cells partition the single sketch's cells exactly,
// and the Theorem 4 merged view reassembles them without loss.
func TestEngineBatchEquivalence(t *testing.T) {
	const (
		keys   = 32
		window = ecmsketch.Tick(1 << 30)
	)
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + trial)))
			p := ecmsketch.Params{
				Epsilon:      0.01,
				Delta:        0.05,
				WindowLength: window,
				Seed:         uint64(7 + trial),
			}
			stripes := 1 << (trial % 3)
			sketch := func() ecmsketch.Engine {
				sk, err := ecmsketch.New(p)
				if err != nil {
					t.Fatal(err)
				}
				return sk
			}
			sharded := func(shards int, async bool) ecmsketch.Engine {
				sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: shards, Async: async})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sh.Close() })
				return sh
			}
			srv, err := ecmserver.New(ecmserver.Config{
				Epsilon: p.Epsilon, Delta: p.Delta, WindowLength: p.WindowLength, Seed: p.Seed, Shards: stripes,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			client := ecmclient.New(ts.URL)

			// single is the reference; each engine is fed through one door:
			// AddBatch (batched) or one AddN per event.
			engines := []struct {
				name    string
				e       ecmsketch.Engine
				batched bool
			}{
				{"single", sketch(), true},
				{"sharded1", sharded(1, false), true},
				{"sharded", sharded(stripes, false), true},
				{"single/addn", sketch(), false},
				{"sharded1/addn", sharded(1, false), false},
				{"sharded/addn", sharded(stripes, false), false},
				{"async/addn", sharded(stripes, true), false},
				{"client/addn", client, false},
			}

			check := func(stage string) {
				t.Helper()
				for _, eng := range engines {
					if f, ok := eng.e.(interface{ Flush() }); ok {
						f.Flush() // the Async engine's read barrier
					}
				}
				if err := client.Err(); err != nil {
					t.Fatalf("%s: client: %v", stage, err)
				}
				for _, r := range []ecmsketch.Tick{window, window / 2, 1000, 1} {
					for key := uint64(0); key < keys; key++ {
						want := engines[0].e.Estimate(key, r)
						for _, eng := range engines[1:] {
							if got := eng.e.Estimate(key, r); got != want {
								t.Fatalf("%s: Estimate(%d, %d): %s=%v, single=%v", stage, key, r, eng.name, got, want)
							}
						}
					}
					wantTotal := engines[0].e.EstimateTotal(r)
					wantSJ := engines[0].e.SelfJoin(r)
					for _, eng := range engines[1:] {
						if got := eng.e.EstimateTotal(r); got != wantTotal {
							t.Fatalf("%s: EstimateTotal(%d): %s=%v, single=%v", stage, r, eng.name, got, wantTotal)
						}
						if got := eng.e.SelfJoin(r); got != wantSJ {
							t.Fatalf("%s: SelfJoin(%d): %s=%v, single=%v", stage, r, eng.name, got, wantSJ)
						}
					}
				}
			}

			var tick ecmsketch.Tick
			events := 0
			for events < 90 {
				batch := make([]ecmsketch.Event, rng.Intn(20)+1)
				for i := range batch {
					switch rng.Intn(5) {
					case 0:
						// Regressed tick: jumps backwards by up to 40.
						back := ecmsketch.Tick(rng.Intn(40))
						if back > tick {
							back = tick
						}
						batch[i] = ecmsketch.Event{Key: rng.Uint64() % keys, Tick: tick - back, N: uint64(rng.Intn(3) + 1)}
					case 1:
						// Zero tick (clamped to the clock) and zero N (counts as 1).
						batch[i] = ecmsketch.Event{Key: rng.Uint64() % keys, Tick: 0, N: 0}
					default:
						tick += ecmsketch.Tick(rng.Intn(50))
						batch[i] = ecmsketch.Event{Key: rng.Uint64() % keys, Tick: tick, N: uint64(rng.Intn(3) + 1)}
					}
				}
				events += len(batch)
				for _, eng := range engines {
					if eng.batched {
						eng.e.AddBatch(batch)
						continue
					}
					for _, ev := range batch {
						eng.e.AddN(ev.Key, ev.Tick, ev.N)
					}
				}
				// Querying mid-stream advances counters lazily; doing so on
				// every engine must not break the equivalence of later batches.
				if rng.Intn(3) == 0 {
					check("mid-stream")
				}
			}
			for _, eng := range engines[1:] {
				if got, want := eng.e.Now(), engines[0].e.Now(); got != want {
					t.Fatalf("Now: %s=%d, single=%d", eng.name, got, want)
				}
			}
			check("final")
		})
	}
}
