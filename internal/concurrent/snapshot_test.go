package concurrent

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sketch"
	"repro/internal/stream"
)

func mkExact(n int) func() *stream.Exact {
	return func() *stream.Exact { return stream.NewExact(n) }
}

func mergeExact(dst, src *stream.Exact) error {
	for i, v := range src.Vector() {
		if v != 0 {
			dst.Update(i, v)
		}
	}
	return nil
}

// A published snapshot is immutable: writes that land after the
// refresh must not change it, must flip Stale, and must appear in the
// next refreshed snapshot.
func TestSnapshotStalenessSemantics(t *testing.T) {
	sh := New(4, mkExact(100), mergeExact)
	sh.Update(0, 7, 3)
	snap, err := sh.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stale() {
		t.Fatal("fresh snapshot reports stale")
	}
	if got := snap.Query(7); got != 3 {
		t.Fatalf("Query(7) = %v, want 3", got)
	}

	sh.Update(1, 7, 10)
	if !snap.Stale() {
		t.Fatal("snapshot not stale after a write")
	}
	if got := snap.Query(7); got != 3 {
		t.Fatalf("published snapshot changed under a writer: Query(7) = %v", got)
	}

	next, err := sh.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Query(7); got != 13 {
		t.Fatalf("refreshed Query(7) = %v, want 13", got)
	}
	if got := snap.Query(7); got != 3 {
		t.Fatalf("old snapshot changed by refresh: Query(7) = %v", got)
	}
}

// Refresh is epoch-gated: an unchanged Sharded republishes the same
// snapshot and builds nothing, and a refresh after writes builds
// exactly one replica — the merged sum — however many shards changed.
// Observable through the replica-constructor call count.
func TestRefreshMergesOnlyChangedShards(t *testing.T) {
	var mkCalls atomic.Int64
	mk := func() *stream.Exact {
		mkCalls.Add(1)
		return stream.NewExact(50)
	}
	sh := New(4, mk, mergeExact)
	if got := mkCalls.Load(); got != 4 { // the shards only
		t.Fatalf("New made %d replicas, want 4", got)
	}

	snap1, err := sh.Refresh() // first publish: 1 mk for the merged sum
	if err != nil {
		t.Fatal(err)
	}
	if got := mkCalls.Load(); got != 5 {
		t.Fatalf("first refresh made %d replicas, want 5", got)
	}

	snap2, err := sh.Refresh() // nothing changed: no mk, same snapshot
	if err != nil {
		t.Fatal(err)
	}
	if snap2 != snap1 {
		t.Fatal("refresh of an unchanged Sharded built a new snapshot")
	}
	if got := mkCalls.Load(); got != 5 {
		t.Fatalf("no-op refresh made replicas: %d, want 5", got)
	}

	sh.Update(2, 1, 1) // dirty exactly one shard (slot 2 of 4)
	if _, err := sh.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := mkCalls.Load() - 5; got != 1 {
		t.Fatalf("one-dirty-shard refresh made %d replicas, want 1", got)
	}

	for slot := 0; slot < 4; slot++ { // dirty every shard
		sh.Update(slot, 3, 1)
	}
	snap3, err := sh.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if got := mkCalls.Load() - 6; got != 1 {
		t.Fatalf("all-dirty refresh made %d replicas, want 1", got)
	}
	if got := snap3.Query(1) + snap3.Query(3); got != 5 {
		t.Fatalf("refreshed sum lost writes: x[1]+x[3] = %v, want 5", got)
	}
}

// Concurrent readers on snapshots while writers batch-update: every
// batch adds the same delta to coordinates 0 and 1, so any snapshot
// that tore a batch — or a merge — would show x[0] != x[1]. Successive
// snapshots must also be monotone on an insert-only stream. Run with
// -race.
func TestSnapshotReadersNeverSeeTornMerge(t *testing.T) {
	const writers, batches = 4, 300
	sh := New(writers, mkExact(10), mergeExact)
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := 0; u < batches; u++ {
				sh.UpdateBatch(w, []int{0, 1}, []float64{1, 1})
			}
		}(w)
	}

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			last := math.Inf(-1)
			out := make([]float64, 2)
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				var snap *Snapshot[*stream.Exact]
				var err error
				if g%2 == 0 {
					snap, err = sh.Snapshot()
				} else {
					snap, err = sh.Refresh()
				}
				if err != nil {
					t.Error(err)
					return
				}
				snap.QueryBatch([]int{0, 1}, out)
				if out[0] != out[1] {
					t.Errorf("torn merge: x[0]=%v x[1]=%v", out[0], out[1])
					return
				}
				if out[0] < last {
					t.Errorf("snapshot went backwards: %v after %v", out[0], last)
					return
				}
				last = out[0]
			}
		}(g)
	}

	wg.Wait()
	close(stopReaders)
	readers.Wait()

	final, err := sh.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(writers * batches)
	if got := final.Query(0); got != want {
		t.Fatalf("final x[0] = %v, want %v", got, want)
	}
}

// The sharded QueryBatch refreshes on staleness and falls back to a
// Query loop for replicas without a native batched path.
func TestShardedQueryBatch(t *testing.T) {
	sh := New(2, mkExact(100), mergeExact)
	sh.UpdateBatch(0, []int{3, 7}, []float64{2, 5})
	out := make([]float64, 2)
	if err := sh.QueryBatch([]int{3, 7}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 5 {
		t.Fatalf("QueryBatch = %v, want [2 5]", out)
	}
	sh.Update(1, 3, 1) // must be folded in by the next batched read
	if err := sh.QueryBatch([]int{3, 7}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 {
		t.Fatalf("stale read: x[3] = %v, want 3", out[0])
	}

	// plainCounter has no QueryBatch: the snapshot loops.
	plain := New(2, func() *plainCounter { return &plainCounter{x: make([]float64, 10)} },
		func(dst, src *plainCounter) error {
			for i, v := range src.x {
				dst.x[i] += v
			}
			return nil
		})
	plain.Update(0, 4, 9)
	pout := make([]float64, 1)
	if err := plain.QueryBatch([]int{4}, pout); err != nil {
		t.Fatal(err)
	}
	if pout[0] != 9 {
		t.Fatalf("fallback QueryBatch = %v, want 9", pout[0])
	}
}

// A refresh whose merge pass fails must leave the previous snapshot
// published without marking the writes as folded in: the next refresh
// must still see the shard epochs move and surface the writes once
// the fault clears.
func TestRefreshRetriesAfterFailedPublish(t *testing.T) {
	sh := New(2, mkExact(10), mergeExact)
	if _, err := sh.Refresh(); err != nil { // publish the empty view
		t.Fatal(err)
	}
	sh.Update(0, 3, 5)

	// The next refresh merges shard 0 first, then shard 1: let the
	// first merge pass, fail the second.
	calls := 0
	sh.merge = func(dst, src *stream.Exact) error {
		if calls++; calls > 1 {
			return errFault
		}
		return mergeExact(dst, src)
	}
	if _, err := sh.Refresh(); err == nil {
		t.Fatal("refresh should surface the merge error")
	}
	sh.merge = mergeExact

	snap, err := sh.Refresh()
	if err != nil {
		t.Fatalf("refresh after fault cleared: %v", err)
	}
	if got := snap.Query(3); got != 5 {
		t.Fatalf("write merged before the failed publish was dropped: Query(3) = %v, want 5", got)
	}
}

var errFault = errors.New("injected merge fault")

// A batch that panics half-applied through the element-wise fallback
// still bumps the shard epoch, so the partial write reaches the next
// snapshot instead of silently diverging from Merged.
func TestPartialFallbackBatchStaysVisibleToSnapshots(t *testing.T) {
	sh := New(1, func() *plainCounter { return &plainCounter{x: make([]float64, 10)} },
		func(dst, src *plainCounter) error {
			for i, v := range src.x {
				dst.x[i] += v
			}
			return nil
		})
	if _, err := sh.Refresh(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range element should panic")
			}
		}()
		// plainCounter has no UpdateBatch and no pre-validation: the
		// first element lands before the second panics.
		sh.UpdateBatch(0, []int{4, 99}, []float64{7, 1})
	}()
	snap, err := sh.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Query(4); got != 7 {
		t.Fatalf("partial batch invisible to snapshot: Query(4) = %v, want 7", got)
	}
}

// Snapshots of a sketch-typed Sharded (the facade's instantiation) use
// the native batched query path and agree with Merged.
func TestSnapshotMatchesMergedForSketches(t *testing.T) {
	cfg := sketch.Config{N: 5000, Rows: 128, Depth: 7}
	mk := func() sketch.Sketch {
		return must(sketch.NewCountSketch(cfg, rand.New(rand.NewSource(21))))
	}
	merge := func(dst, src sketch.Sketch) error {
		return dst.(sketch.Linear).MergeFrom(src.(sketch.Linear))
	}
	sh := New(3, mk, merge)
	r := rand.New(rand.NewSource(22))
	for u := 0; u < 20000; u++ {
		sh.Update(u, r.Intn(cfg.N), float64(r.Intn(5)-1))
	}
	snap, err := sh.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sh.Merged()
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 0, cfg.N/53)
	for i := 0; i < cfg.N; i += 53 {
		idx = append(idx, i)
	}
	out := make([]float64, len(idx))
	snap.QueryBatch(idx, out)
	for j, i := range idx {
		if want := merged.Query(i); out[j] != want {
			t.Fatalf("query %d: snapshot %v, merged %v", i, out[j], want)
		}
	}
}

// recordingExact is an Exact whose batched query path records the
// batch buffer it was handed and panics on an out-of-range index —
// the shape of a poisoned request a serving layer recovers from.
type recordingExact struct {
	*stream.Exact
	last *int // &idx[0] of the most recent QueryBatch call
}

func (r *recordingExact) QueryBatch(idx []int, out []float64) {
	r.last = &idx[0]
	for j, i := range idx {
		if i < 0 || i >= r.Dim() {
			panic("recordingExact: index out of range")
		}
		out[j] = r.Exact.Query(i)
	}
}

// A panicking replica QueryBatch must not leak the pooled point-query
// buffers: Snapshot.Query returns them by defer, so the next query on
// the same goroutine reuses the very same buffer instead of allocating
// a fresh one (observable through the batch pointer the replica saw).
// sync.Pool intentionally drops a random fraction of Puts under the
// race detector (and a goroutine can migrate off the P holding the
// private slot), so one iteration proving reuse is enough while a
// single miss proves nothing — with the pre-fix leak the recorded
// pointer keeps the buffer alive, its address can never be recycled,
// and no amount of retrying would ever see it again.
func TestSnapshotQueryReturnsPooledBuffersOnPanic(t *testing.T) {
	mk := func() *recordingExact { return &recordingExact{Exact: stream.NewExact(8)} }
	merge := func(dst, src *recordingExact) error { return mergeExact(dst.Exact, src.Exact) }
	sh := New(1, mk, merge)
	sh.Update(0, 1, 5)
	snap, err := sh.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	rec := snap.Sketch()

	for attempt := 0; attempt < 50; attempt++ {
		if got := snap.Query(1); got != 5 {
			t.Fatalf("Query(1) = %v, want 5", got)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range snapshot Query did not panic")
				}
			}()
			snap.Query(99)
		}()
		leaked := rec.last
		if got := snap.Query(2); got != 0 {
			t.Fatalf("Query(2) = %v, want 0", got)
		}
		if rec.last == leaked {
			return
		}
	}
	t.Fatal("panicking QueryBatch leaked the pooled point buffers: no later Query ever saw the same buffer again")
}
