package bench

import (
	"math/rand"
	"testing"

	"repro/internal/sketch"
)

// Query benchmarks at the paper's §5.1 shape (s=4096, d=9), the twin
// of update_bench_test.go: the same b.N point queries flow through the
// element-wise Query loop and through QueryBatch in batches of
// queryBatchLen, so ns/op is directly comparable between the two — the
// batched number must win by the row-major traversal (one
// hash/sign-coefficient load per row per batch, cache-hot rows for the
// gather; the median/min step runs per element either way).
const (
	queryBenchN   = 1_000_000
	queryBenchS   = 4096
	queryBenchD   = 9
	queryBatchLen = 1024
	queryFillLen  = 1 << 18 // updates ingested before queries start
)

// queriedSketch builds an algorithm at the benchmark shape and feeds
// it a fixed stream, so queries touch realistically populated rows.
func queriedSketch(b *testing.B, algo string) sketch.Sketch {
	b.Helper()
	sk := Make(algo, queryBenchN, queryBenchS, queryBenchD, 1)
	r := rand.New(rand.NewSource(79))
	idx := make([]int, 4096)
	ones := make([]float64, 4096)
	for j := range ones {
		ones[j] = 1
	}
	for done := 0; done < queryFillLen; done += len(idx) {
		for j := range idx {
			idx[j] = r.Intn(queryBenchN)
		}
		sketch.UpdateBatch(sk, idx, ones)
	}
	return sk
}

// queryStream pre-materializes the queried coordinates so neither
// benchmark pays RNG costs inside the timed loop.
func queryStream() []int {
	r := rand.New(rand.NewSource(80))
	idx := make([]int, 1<<16)
	for j := range idx {
		idx[j] = r.Intn(queryBenchN)
	}
	return idx
}

func BenchmarkQuery(b *testing.B) {
	idx := queryStream()
	for _, algo := range All {
		b.Run(algo, func(b *testing.B) {
			sk := queriedSketch(b, algo)
			mask := len(idx) - 1
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += sk.Query(idx[i&mask])
			}
			_ = sink
		})
	}
}

func BenchmarkQueryBatch(b *testing.B) {
	idx := queryStream()
	for _, algo := range All {
		b.Run(algo, func(b *testing.B) {
			sk := queriedSketch(b, algo)
			bq, ok := sk.(sketch.BatchQuerier)
			if !ok {
				b.Fatalf("%s (%T) has no batched query path", algo, sk)
			}
			out := make([]float64, queryBatchLen)
			span := len(idx) - queryBatchLen
			b.ResetTimer()
			for done := 0; done < b.N; done += queryBatchLen {
				m := queryBatchLen
				if rem := b.N - done; rem < m {
					m = rem
				}
				off := done % span
				bq.QueryBatch(idx[off:off+m], out[:m])
			}
		})
	}
}
