package ecmsketch_test

import (
	"fmt"
	"sync"
	"sync/atomic"
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

func BenchmarkWindowedSumAdd(b *testing.B) {
	ws, err := ecmsketch.NewWindowedSum(ecmsketch.SumConfig{
		WindowLength: 1 << 20, Epsilon: 0.05, MaxValue: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ws.Add(ecmsketch.Tick(i+1), uint64(i%1500)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReordererOffer(b *testing.B) {
	sink := func(uint64, ecmsketch.Tick, uint64) {}
	r, err := ecmsketch.NewReorderer(64, sink)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Alternate between in-order and slightly regressed ticks.
		t := ecmsketch.Tick(i + 1)
		if i%3 == 0 && t > 10 {
			t -= 10
		}
		r.Offer(uint64(i%256), t, 1)
	}
	r.Flush()
}

func BenchmarkTopKOffer(b *testing.B) {
	tk, err := ecmsketch.NewTopK(10, ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk.Offer(uint64(i%4096), ecmsketch.Tick(i+1))
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

// BenchmarkIngestSafeVsSharded compares the single-mutex SafeSketch against
// the lock-striped Sharded engine at 1, 4 and 16 writer goroutines — the
// scaling argument behind the sharded engine (compare ns/op across the
// /safe/ and /sharded/ variants at equal goroutine counts).
func BenchmarkIngestSafeVsSharded(b *testing.B) {
	params := ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20}
	for _, bench := range []struct {
		name string
		mk   func(b *testing.B) ecmsketch.Ingestor
	}{
		{"safe", func(b *testing.B) ecmsketch.Ingestor {
			ss, err := ecmsketch.NewSafe(params)
			if err != nil {
				b.Fatal(err)
			}
			return ss
		}},
		{"sharded", func(b *testing.B) ecmsketch.Ingestor {
			sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: params, Shards: 16})
			if err != nil {
				b.Fatal(err)
			}
			return sh
		}},
	} {
		for _, goroutines := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", bench.name, goroutines), func(b *testing.B) {
				benchConcurrentIngest(b, bench.mk(b), goroutines, 1)
			})
			b.Run(fmt.Sprintf("%s-batch64/goroutines=%d", bench.name, goroutines), func(b *testing.B) {
				benchConcurrentIngest(b, bench.mk(b), goroutines, 64)
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

func BenchmarkSafeSketchAddParallel(b *testing.B) {
	ss, err := ecmsketch.NewSafe(ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	var tick atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			ss.Add(i%1024, tick.Add(1))
		}
	})
}
