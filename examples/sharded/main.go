// Command sharded demonstrates the interface-first API: one ingest-and-query
// pipeline, written purely against ecmsketch.Ingestor/Querier, pointed at
// three interchangeable backends — a plain local Sketch, the lock-striped
// Sharded engine, and a remote ecmserve instance spoken to through
// ecmclient. All three summarize the same synthetic stream and answer the
// same queries within the sketch's error bounds.
//
// Run with: go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
)

const window = 600_000 // 10 minutes of millisecond ticks

// ingest is the shared pipeline: batch the stream and feed any Ingestor.
func ingest(in ecmsketch.Ingestor, events []ecmsketch.Event) {
	const batch = 256
	for off := 0; off < len(events); off += batch {
		end := off + batch
		if end > len(events) {
			end = len(events)
		}
		in.AddBatch(events[off:end])
	}
}

// report is the shared query side: one QueryBatch answers the hot-key
// estimate, the total and the self-join from a single consistent cut of
// the stream — one stripe-merge on the sharded engine, one HTTP round trip
// on the remote client — where three single calls could each observe a
// different state (and cost three round trips).
func report(name string, eng ecmsketch.Engine, hot uint64) {
	res, err := eng.QueryBatch(ecmsketch.QueryBatch{
		Keys:     []uint64{hot},
		Range:    window,
		Total:    true,
		SelfJoin: true,
	})
	if err != nil {
		log.Fatal(name, ": ", err)
	}
	fmt.Printf("%-8s  now=%-9d  hot=%-9.0f  total=%-9.0f  F2=%.3g\n",
		name, res.Now, res.Estimates[0], res.Total, res.SelfJoin)
}

func main() {
	// A skewed synthetic stream: 40k arrivals over the window, zipf keys.
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.1, 1, 10_000-1)
	events := make([]ecmsketch.Event, 40_000)
	hotKey, hotCount := uint64(0), 0
	counts := map[uint64]int{}
	for i := range events {
		key := zipf.Uint64()
		events[i] = ecmsketch.Event{Key: key, Tick: ecmsketch.Tick(1 + i*window/len(events))}
		if counts[key]++; counts[key] > hotCount {
			hotKey, hotCount = key, counts[key]
		}
	}
	fmt.Printf("stream: %d events, hottest key %d appears %d times\n\n", len(events), hotKey, hotCount)

	params := ecmsketch.Params{Epsilon: 0.02, Delta: 0.01, WindowLength: window, Seed: 1}

	// Backend 1: a plain single-goroutine sketch.
	local, err := ecmsketch.New(params)
	if err != nil {
		log.Fatal(err)
	}

	// Backend 2: the lock-striped sharded engine (concurrent ingest,
	// per-key point queries on one stripe, global queries via Theorem 4
	// merge).
	sharded, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
		Params: params, Shards: 8, MergeTTL: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Backend 3: a remote ecmserve instance on a loopback listener, spoken
	// to through the typed client.
	srv, err := ecmserver.New(ecmserver.Config{
		Epsilon: params.Epsilon, Delta: params.Delta, WindowLength: window,
		Seed: params.Seed, Shards: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv)
	remote := ecmclient.New("http://" + ln.Addr().String())

	// The same pipeline, three backends.
	for _, backend := range []struct {
		name string
		eng  ecmsketch.Engine
	}{
		{"sketch", local},
		{"sharded", sharded},
		{"remote", remote},
	} {
		ingest(backend.eng, events)
		report(backend.name, backend.eng, hotKey)
	}
	if err := remote.Err(); err != nil {
		log.Fatal("remote backend failed: ", err)
	}

	// Snapshots from any backend are plain sketches and merge like
	// distributed sites (each backend saw the whole stream, so the merged
	// hot-key estimate triples).
	s1, err := sharded.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	s2, err := remote.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	merged, err := ecmsketch.Merge(local, s1, s2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmerged 3 backends: hot=%0.f (≈3×%d), count=%d\n",
		merged.Estimate(hotKey, window), hotCount, merged.Count())
}
