package ecmsketch_test

import (
	"fmt"
	"sync"
	"testing"

	"ecmsketch"
)

// Micro-benchmarks for the library components outside the paper's
// tables/figures: ingestion paths, serialization, and the derived trackers.

func BenchmarkSketchAdd(b *testing.B) {
	sk, err := ecmsketch.New(ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.Add(uint64(i%4096), ecmsketch.Tick(i+1))
	}
}

// BenchmarkSketchAddBatch measures the single-sketch batch ingest hot path
// at the acceptance operating point (EH, ε=0.05): ns/op, B/op and allocs/op
// are all per event. A working micro-benchmark only: recorded ingest numbers
// come from bench/'s engine-ingest workload.
func BenchmarkSketchAddBatch(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			sk, err := ecmsketch.New(ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]ecmsketch.Event, 0, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch = append(batch, ecmsketch.Event{Key: uint64(i % 4096), Tick: ecmsketch.Tick(i + 1)})
				if len(batch) == cap(batch) {
					sk.AddBatch(batch)
					batch = batch[:0]
				}
			}
			sk.AddBatch(batch)
		})
	}
}

func BenchmarkSketchEstimate(b *testing.B) {
	sk, err := ecmsketch.New(ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<17; i++ {
		sk.Add(uint64(i%4096), ecmsketch.Tick(i+1))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.Estimate(uint64(i%4096), 1<<16)
	}
}

func BenchmarkSketchMarshal(b *testing.B) {
	sk, err := ecmsketch.New(ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<17; i++ {
		sk.Add(uint64(i%4096), ecmsketch.Tick(i+1))
	}
	enc := sk.Marshal()
	b.ReportMetric(float64(len(enc)), "encoded-bytes")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if enc = sk.Marshal(); len(enc) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkSketchUnmarshal(b *testing.B) {
	sk, err := ecmsketch.New(ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<17; i++ {
		sk.Add(uint64(i%4096), ecmsketch.Tick(i+1))
	}
	enc := sk.Marshal()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ecmsketch.Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConcurrentIngest measures wall-clock ingest throughput of an
// Ingestor under a fixed number of writer goroutines, each feeding
// single-event AddN calls (the worst case for lock traffic — batching is
// benchmarked separately). The b.N budget is split across the goroutines.
func benchConcurrentIngest(b *testing.B, ing ecmsketch.Ingestor, goroutines int, batchSize int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/goroutines + 1
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) << 32
			if batchSize <= 1 {
				for i := 0; i < per; i++ {
					ing.AddN(base|uint64(i%4096), ecmsketch.Tick(i+1), 1)
				}
				return
			}
			batch := make([]ecmsketch.Event, 0, batchSize)
			for i := 0; i < per; i++ {
				batch = append(batch, ecmsketch.Event{Key: base | uint64(i%4096), Tick: ecmsketch.Tick(i + 1)})
				if len(batch) == cap(batch) {
					ing.AddBatch(batch)
					batch = batch[:0]
				}
			}
			ing.AddBatch(batch)
		}(g)
	}
	wg.Wait()
}

// BenchmarkIngestShards compares a one-stripe Sharded engine (every writer
// contends for one lock) against 16 lock stripes at 1, 4 and 16 writer
// goroutines — the scaling argument behind striping (compare ns/op across
// the /shards=1/ and /shards=16/ variants at equal goroutine counts).
func BenchmarkIngestShards(b *testing.B) {
	params := ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20}
	for _, shards := range []int{1, 16} {
		mk := func(b *testing.B) ecmsketch.Ingestor {
			sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: params, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { sh.Close() })
			return sh
		}
		for _, goroutines := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("shards=%d/goroutines=%d", shards, goroutines), func(b *testing.B) {
				benchConcurrentIngest(b, mk(b), goroutines, 1)
			})
			b.Run(fmt.Sprintf("shards=%d-batch64/goroutines=%d", shards, goroutines), func(b *testing.B) {
				benchConcurrentIngest(b, mk(b), goroutines, 64)
			})
		}
	}
}

// BenchmarkQueryBatchVsSingles compares one QueryBatch of 16 keys plus both
// aggregates against the equivalent sequence of 18 single queries, on a
// quiesced Sharded engine (cache-hit reads — reads beside a writer are
// bench/'s serve-read workload).
func BenchmarkQueryBatchVsSingles(b *testing.B) {
	params := ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20}
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: params, Shards: 16})
	if err != nil {
		b.Fatal(err)
	}
	events := make([]ecmsketch.Event, 1<<16)
	for i := range events {
		events[i] = ecmsketch.Event{Key: uint64(i % 4096), Tick: ecmsketch.Tick(i + 1)}
	}
	sh.AddBatch(events)
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i * 17)
	}
	r := params.WindowLength / 2
	b.Run("batch16+aggregates", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sh.QueryBatch(ecmsketch.QueryBatch{Keys: keys, Range: r, Total: true, SelfJoin: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("singles16+aggregates", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				sh.Estimate(k, r)
			}
			sh.EstimateTotal(r)
			sh.SelfJoin(r)
		}
	})
}

// serveReadEngine builds bench/'s serve-read engine shape: 4 stripes, EH,
// ε = 0.02, δ = 0.01, W = 2^17, 8 events per tick over 2^16 keys preloaded
// for 1.125·W ticks. It returns the engine and the last preloaded tick.
func serveReadEngine(b *testing.B) (*ecmsketch.Sharded, ecmsketch.Tick) {
	b.Helper()
	const window = 1 << 17
	params := ecmsketch.Params{Epsilon: 0.02, Delta: 0.01, WindowLength: window}
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: params, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	last := ecmsketch.Tick(window + window/8)
	batch := make([]ecmsketch.Event, 0, 1024)
	for tick := ecmsketch.Tick(1); tick <= last; tick++ {
		batch = appendServeReadTick(batch, tick)
		if len(batch) == cap(batch) {
			sh.AddBatch(batch)
			batch = batch[:0]
		}
	}
	sh.AddBatch(batch)
	return sh, last
}

// appendServeReadTick appends tick's 8 arrivals of serveReadEngine's stream.
func appendServeReadTick(batch []ecmsketch.Event, tick ecmsketch.Tick) []ecmsketch.Event {
	const perTick = 8
	for j := 0; j < perTick; j++ {
		batch = append(batch, ecmsketch.Event{Key: (uint64(tick)*perTick + uint64(j)) * 0x9e3779b97f4a7c15 % (1 << 16), Tick: tick})
	}
	return batch
}

// BenchmarkQueryAgg measures one aggregate read (Total and SelfJoin) from a
// published view at bench/'s serve-read shape (serveReadEngine). "miss"
// cycles through more ranges than a view remembers, so every read sweeps
// all d×w counters of every stripe; "hit" repeats W/2, which the view
// answers from its per-range memos.
func BenchmarkQueryAgg(b *testing.B) {
	sh, _ := serveReadEngine(b)
	window := sh.Params().WindowLength
	for _, c := range []struct {
		name   string
		ranges ecmsketch.Tick
	}{{"miss", 64}, {"hit", 1}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := window/2 - ecmsketch.Tick(i)%c.ranges
				if _, err := sh.QueryBatch(ecmsketch.QueryBatch{Range: r, Total: true, SelfJoin: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViewRebuild measures one strict-fresh view rebuild (MergeTTL 0)
// at bench/'s serve-read shape (serveReadEngine): every iteration writes
// one 256-event batch (32 ticks, every stripe touched) and then asks one
// point query, which must rebuild the view first. The write is a small
// share of the time; the rest is cloning the four stripes and settling them
// at the new clock.
func BenchmarkViewRebuild(b *testing.B) {
	sh, tick := serveReadEngine(b)
	batch := make([]ecmsketch.Event, 0, 256)
	q := ecmsketch.QueryBatch{Keys: []uint64{1}}
	if _, err := sh.QueryBatch(q); err != nil {
		b.Fatal(err)
	}
	rebuilds := sh.ViewRebuilds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = batch[:0]
		for len(batch) < cap(batch) {
			tick++
			batch = appendServeReadTick(batch, tick)
		}
		sh.AddBatch(batch)
		if _, err := sh.QueryBatch(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sh.ViewRebuilds()-rebuilds)/float64(b.N), "rebuilds/op")
}
