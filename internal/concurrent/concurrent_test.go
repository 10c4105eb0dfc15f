package concurrent

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sketch"
)

func mkL2(seed int64) func() *core.SR {
	return func() *core.SR {
		return core.NewL2SR(core.Config{N: 10000, K: 64},
			rand.New(rand.NewSource(seed)))
	}
}

func mergeL2(dst, src *core.SR) error { return dst.MergeFrom(src) }

func TestNewPanicsOnBadShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, mkL2(1), mergeL2)
}

func TestSequentialMatchesPlain(t *testing.T) {
	sh := New(4, mkL2(2), mergeL2)
	plain := mkL2(2)()
	r := rand.New(rand.NewSource(3))
	for u := 0; u < 20000; u++ {
		i, d := r.Intn(10000), float64(r.Intn(7))
		sh.Update(u, i, d)
		plain.Update(i, d)
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i += 111 {
		if a, b := plain.Query(i), snap.Query(i); math.Abs(a-b) > 1e-9 {
			t.Fatalf("query %d: plain %f sharded %f", i, a, b)
		}
	}
	if math.Abs(plain.Bias()-snap.Sketch().Bias()) > 1e-9 {
		t.Fatalf("bias mismatch: %f vs %f", plain.Bias(), snap.Sketch().Bias())
	}
}

// Concurrent writers from many goroutines; final snapshot must equal
// the deterministic total regardless of interleaving. Run with -race.
func TestConcurrentWritersExactTotal(t *testing.T) {
	const workers, perWorker, n = 8, 5000, 10000
	sh := New(workers, mkL2(4), mergeL2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for u := 0; u < perWorker; u++ {
				sh.Update(w, r.Intn(n), 1)
			}
		}(w)
	}
	wg.Wait()

	// Replay the same updates sequentially for the reference.
	ref := mkL2(4)()
	for w := 0; w < workers; w++ {
		r := rand.New(rand.NewSource(int64(100 + w)))
		for u := 0; u < perWorker; u++ {
			ref.Update(r.Intn(n), 1)
		}
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 97 {
		if a, b := ref.Query(i), snap.Query(i); math.Abs(a-b) > 1e-9 {
			t.Fatalf("query %d: ref %f sharded %f", i, a, b)
		}
	}
}

// Snapshots taken while writers are running must be internally
// consistent (no panics, no torn reads) — exercised under -race.
func TestSnapshotDuringWrites(t *testing.T) {
	const n = 10000
	sh := New(4, mkL2(5), mergeL2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
					sh.Update(w, r.Intn(n), 1)
				}
			}
		}(w)
	}
	for q := 0; q < 50; q++ {
		if _, err := sh.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestQueryAndAccessors(t *testing.T) {
	sh := New(3, mkL2(6), mergeL2)
	sh.Update(0, 42, 10)
	got, err := sh.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 5 {
		t.Errorf("Query(42) = %f, want ≈10", got)
	}
	if sh.Shards() != 3 {
		t.Errorf("Shards = %d", sh.Shards())
	}
	single := mkL2(6)().Words()
	if sh.Words() != 3*single {
		t.Errorf("Words = %d, want %d", sh.Words(), 3*single)
	}
}

// Sharding also works for the plain linear baselines.
func TestShardedCountSketch(t *testing.T) {
	cfg := sketch.Config{N: 5000, Rows: 128, Depth: 7}
	mk := func() *sketch.CountSketch {
		return must(sketch.NewCountSketch(cfg, rand.New(rand.NewSource(7))))
	}
	sh := New(2, mk, func(d, s *sketch.CountSketch) error { return d.MergeFrom(s) })
	plain := mk()
	r := rand.New(rand.NewSource(8))
	for u := 0; u < 10000; u++ {
		i, d := r.Intn(cfg.N), float64(r.Intn(5)-1)
		sh.Update(u, i, d)
		plain.Update(i, d)
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i += 53 {
		if a, b := plain.Query(i), snap.Query(i); math.Abs(a-b) > 1e-9 {
			t.Fatalf("query %d mismatch", i)
		}
	}
}

// A bad factory (mismatched seeds) must surface as a merge error, not
// silent corruption.
func TestMergeErrorSurfaces(t *testing.T) {
	seed := int64(0)
	mk := func() *core.SR {
		seed++
		return core.NewL2SR(core.Config{N: 100, K: 4}, rand.New(rand.NewSource(seed)))
	}
	sh := New(2, mk, mergeL2)
	sh.Update(0, 1, 1)
	if _, err := sh.Snapshot(); err == nil {
		t.Error("mismatched shard seeds should fail to merge")
	}
}

func BenchmarkShardedUpdateParallel(b *testing.B) {
	sh := New(8, mkL2(9), mergeL2)
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(10))
		slot := r.Int()
		i := 0
		for pb.Next() {
			sh.Update(slot, i%10000, 1)
			i++
		}
	})
}

func BenchmarkMerged(b *testing.B) {
	sh := New(8, mkL2(11), mergeL2)
	for u := 0; u < 100000; u++ {
		sh.Update(u, u%10000, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.Merged(); err != nil {
			b.Fatal(err)
		}
	}
}

// Refresh with exactly one dirty shard per iteration: the moved epoch
// triggers the full pass, so this measures one construction plus the
// merge of all eight shards.
func BenchmarkRefreshOneDirtyShard(b *testing.B) {
	sh := New(8, mkL2(11), mergeL2)
	for u := 0; u < 100000; u++ {
		sh.Update(u, u%10000, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Update(0, i%10000, 1)
		if _, err := sh.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// Snapshot on a quiet Sharded is the serving fast path: one atomic
// pointer load, no locks, no merging.
func BenchmarkSnapshotPublished(b *testing.B) {
	sh := New(8, mkL2(11), mergeL2)
	for u := 0; u < 100000; u++ {
		sh.Update(u, u%10000, 1)
	}
	if _, err := sh.Refresh(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// Regression test for the shard-mutex deadlock: a writer that panics
// inside sk.Update (out-of-range index) must release the shard lock on
// the way out, so later writers on the same shard still make progress.
func TestPanickingUpdateDoesNotDeadlockShard(t *testing.T) {
	sh := New(1, mkL2(12), mergeL2) // one shard: every slot shares the mutex
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range update should panic")
			}
		}()
		sh.Update(0, 1_000_000, 1) // N is 10000
	}()

	done := make(chan struct{})
	go func() {
		sh.Update(1, 42, 5) // same (only) shard as the panicking writer
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second writer blocked: shard mutex leaked by panicking update")
	}
	if v, err := sh.Query(42); err != nil || v == 0 {
		t.Fatalf("Query(42) = %v, %v after recovery", v, err)
	}
}

// The batched entry point holds the same invariant.
func TestPanickingUpdateBatchDoesNotDeadlockShard(t *testing.T) {
	sh := New(1, mkL2(13), mergeL2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid batch should panic")
			}
		}()
		sh.UpdateBatch(0, []int{1, 1_000_000}, []float64{1, 1})
	}()

	done := make(chan struct{})
	go func() {
		sh.UpdateBatch(1, []int{7, 7}, []float64{2, 3})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second writer blocked: shard mutex leaked by panicking batch")
	}
	// The rejected batch is all-or-nothing AND the later batch landed.
	if v, err := sh.Query(7); err != nil || v == 0 {
		t.Fatalf("Query(7) = %v, %v after recovery", v, err)
	}
}

// Batched sharded ingestion must produce the same final counters as
// element-wise sharded ingestion (same slots, same stream order).
func TestUpdateBatchMatchesElementwise(t *testing.T) {
	const n, rounds = 10000, 50
	batched := New(4, mkL2(14), mergeL2)
	seq := New(4, mkL2(14), mergeL2)
	r := rand.New(rand.NewSource(15))
	for round := 0; round < rounds; round++ {
		m := 1 + r.Intn(400)
		idx := make([]int, m)
		deltas := make([]float64, m)
		for j := range idx {
			idx[j] = r.Intn(n)
			deltas[j] = float64(1 + r.Intn(5))
		}
		batched.UpdateBatch(round, idx, deltas)
		for j := range idx {
			seq.Update(round, idx[j], deltas[j])
		}
	}
	a, err := batched.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := seq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 37 {
		if x, y := a.Query(i), b.Query(i); x != y {
			t.Fatalf("query %d: batched %v, element-wise %v", i, x, y)
		}
	}
	if a.Sketch().Bias() != b.Sketch().Bias() {
		t.Fatalf("bias: batched %v, element-wise %v", a.Sketch().Bias(), b.Sketch().Bias())
	}
}

// UpdateBatch under concurrent writers, checked with -race: the final
// snapshot must carry every batch exactly once.
func TestConcurrentBatchWritersExactTotal(t *testing.T) {
	const workers, batches, batchLen, n = 8, 200, 64, 10000
	sh := New(workers, mkL2(16), mergeL2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + w)))
			idx := make([]int, batchLen)
			deltas := make([]float64, batchLen)
			for u := 0; u < batches; u++ {
				for j := range idx {
					idx[j] = r.Intn(n)
					deltas[j] = 1
				}
				sh.UpdateBatch(w, idx, deltas)
			}
		}(w)
	}
	wg.Wait()

	ref := mkL2(16)()
	for w := 0; w < workers; w++ {
		r := rand.New(rand.NewSource(int64(200 + w)))
		for u := 0; u < batches*batchLen; u++ {
			ref.Update(r.Intn(n), 1)
		}
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 97 {
		if a, b := ref.Query(i), snap.Query(i); math.Abs(a-b) > 1e-9 {
			t.Fatalf("query %d: ref %f sharded %f", i, a, b)
		}
	}
}

// Replicas without a native batched path absorb batches element-wise
// under the single lock — same counters either way.
func TestUpdateBatchFallbackForPlainMergeable(t *testing.T) {
	mk := func() *plainCounter { return &plainCounter{x: make([]float64, 100)} }
	sh := New(2, mk, func(dst, src *plainCounter) error {
		for i, v := range src.x {
			dst.x[i] += v
		}
		return nil
	})
	sh.UpdateBatch(0, []int{3, 3, 7}, []float64{1, 2, 4})
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Query(3) != 3 || snap.Query(7) != 4 {
		t.Fatalf("fallback batch lost updates: x[3]=%v x[7]=%v", snap.Query(3), snap.Query(7))
	}
}

// plainCounter is a Mergeable with no UpdateBatch method.
type plainCounter struct{ x []float64 }

func (p *plainCounter) Update(i int, delta float64) { p.x[i] += delta }
func (p *plainCounter) Query(i int) float64         { return p.x[i] }
func (p *plainCounter) Dim() int                    { return len(p.x) }
func (p *plainCounter) Words() int                  { return len(p.x) }

func BenchmarkShardedUpdateBatchParallel(b *testing.B) {
	const batchLen = 1024
	sh := New(8, mkL2(17), mergeL2)
	var nextSlot atomic.Int64 // distinct slot per goroutine: writers spread over shards
	b.RunParallel(func(pb *testing.PB) {
		slot := int(nextSlot.Add(1))
		r := rand.New(rand.NewSource(int64(18 + slot)))
		idx := make([]int, batchLen)
		deltas := make([]float64, batchLen)
		for j := range idx {
			idx[j] = r.Intn(10000)
			deltas[j] = 1
		}
		for pb.Next() {
			sh.UpdateBatch(slot, idx, deltas)
		}
	})
	b.ReportMetric(float64(b.N*batchLen), "updates")
}
