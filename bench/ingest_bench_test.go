// Ingestion benchmarks at the public-API level: the same stream flows
// through Sketch.Update, repro.UpdateBatch, and Sharded.UpdateBatch,
// so the facade's batched path is measured exactly as an external
// consumer would drive it. ns/op is per update for the facade pair and
// per 1024-element batch for the parallel sharded benchmark.
package bench_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro"
)

const (
	ingestN        = 1_000_000
	ingestBatchLen = 1024
)

var ingestAlgos = []string{"countmin", "l2sr"}

func ingestStream() (idx []int, ones []float64) {
	r := rand.New(rand.NewSource(88))
	idx = make([]int, 1<<16)
	ones = make([]float64, 1<<16)
	for j := range idx {
		idx[j] = r.Intn(ingestN)
		ones[j] = 1
	}
	return idx, ones
}

func BenchmarkFacadeUpdate(b *testing.B) {
	idx, ones := ingestStream()
	for _, algo := range ingestAlgos {
		b.Run(algo, func(b *testing.B) {
			sk := repro.MustNew(algo, repro.WithDim(ingestN))
			mask := len(idx) - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Update(idx[i&mask], ones[0])
			}
		})
	}
}

func BenchmarkFacadeUpdateBatch(b *testing.B) {
	idx, ones := ingestStream()
	for _, algo := range ingestAlgos {
		b.Run(algo, func(b *testing.B) {
			sk := repro.MustNew(algo, repro.WithDim(ingestN))
			span := len(idx) - ingestBatchLen
			b.ResetTimer()
			for done := 0; done < b.N; done += ingestBatchLen {
				m := ingestBatchLen
				if rem := b.N - done; rem < m {
					m = rem
				}
				off := done % span
				if err := repro.UpdateBatch(sk, idx[off:off+m], ones[off:off+m]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedUpdateBatch writes into 8 shards that are never
// read; l2sr shards then only add into their bias rows, since only a
// replica that is read orders its Bias-Heap. Each goroutine writes its
// own shard, so the number measures the writes and not a random share
// of lock contention.
func BenchmarkShardedUpdateBatch(b *testing.B) {
	idx, ones := ingestStream()
	for _, algo := range ingestAlgos {
		b.Run(algo, func(b *testing.B) {
			sh, err := repro.NewSharded(8, algo, repro.WithDim(ingestN))
			if err != nil {
				b.Fatal(err)
			}
			span := len(idx) - ingestBatchLen
			var slots atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				slot := int(slots.Add(1))
				done := 0
				for pb.Next() {
					off := done % span
					if err := sh.UpdateBatch(slot, idx[off:off+ingestBatchLen], ones[off:off+ingestBatchLen]); err != nil {
						b.Fatal(err)
					}
					done += ingestBatchLen
				}
			})
		})
	}
}
