// Package concurrent makes any linear sketch safe for multi-goroutine
// ingestion by sharding: P writers each own a private replica built
// with the same configuration and seeds, so updates are contention
// free; linearity (the same property that powers the distributed model
// of §1) means the replicas simply sum, and readers consume merged
// snapshots.
//
// This is the idiomatic way to parallelize sketch ingestion — a single
// mutex serializes the hot path, while striped locks break the
// sketch's cross-bucket invariants (the bias-aware sketches update a
// bucket row *and* an estimator per call, which must stay atomic
// relative to each other for mid-stream queries).
//
// The read side is epoch-counted: every shard carries an atomic epoch
// bumped on each write, and the merged replica readers see is an
// immutable Snapshot swapped in atomically by Refresh. Reading a
// published snapshot takes zero shard locks and never blocks writers.
// A refresh that finds some shard's epoch moved builds one fresh
// replica and merges every shard into it in shard order, locking each
// shard briefly, one at a time; Merged runs the same pass, so both
// return the same sum. The replica factory shares everything the seed
// fixes between replicas (the registry's common-knowledge basis), so a
// refresh builds counters only and the snapshot's first read has no
// cache to warm. The price is the published merge (memory P+1
// single sketches once snapshots are in use); the return is a serving
// path where query bursts from many goroutines proceed with no
// coordination at all.
package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Mergeable is the sketch surface sharding needs: streaming updates
// and point queries. core.SR and the linear baselines satisfy it. The
// merge itself is the rule New takes, such as a replica's MergeFrom or
// registry.Merge.
type Mergeable interface {
	Update(i int, delta float64)
	Query(i int) float64
	Dim() int
	Words() int
}

// Sharded is a set of P replicas of one sketch plus a merge rule.
type Sharded[S Mergeable] struct {
	shards []shard[S]
	mk     func() S
	merge  func(dst, src S) error

	// view is the published read replica; readers atomic-load it and
	// never touch shard locks. refreshMu serializes refreshes.
	view      atomic.Pointer[Snapshot[S]]
	refreshMu sync.Mutex
}

type shard[S Mergeable] struct {
	mu    sync.Mutex
	sk    S
	epoch atomic.Uint64 // bumped under mu after every applied write
	_     [32]byte      // pad to 64 bytes: one shard's mutex+epoch per cache line
}

// New creates a sharded sketch with p shards. mk must build replicas
// with identical configuration and seeds (so they merge); merge adds
// src into dst.
func New[S Mergeable](p int, mk func() S, merge func(dst, src S) error) *Sharded[S] {
	if p <= 0 {
		panic(fmt.Sprintf("concurrent: shard count %d must be positive", p))
	}
	s := &Sharded[S]{shards: make([]shard[S], p), mk: mk, merge: merge}
	for i := range s.shards {
		s.shards[i].sk = mk()
	}
	return s
}

// Update applies x[i] += delta on the shard owning the caller's slot.
// slot is any caller-chosen integer (e.g. a worker id); updates with
// the same slot serialize, different slots proceed in parallel.
//
// The shard lock is released by defer: sk.Update panics on programmer
// errors (an out-of-range index), and a panicking writer must not
// leave the shard locked forever for every later writer. The epoch
// bumps by defer too, even when the write panics: the sketches in this
// module validate before mutating, but a foreign replica might panic
// half-applied, and a spurious epoch bump merely costs one refresh
// while a missed one would hide the partial write from every snapshot.
//
//sketch:hotpath
func (s *Sharded[S]) Update(slot, i int, delta float64) {
	sh := &s.shards[uint(slot)%uint(len(s.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.epoch.Add(1)
	sh.sk.Update(i, delta)
}

// batchUpdater matches sketches with a native batched ingestion path —
// the sketch.BatchUpdater capability, restated structurally so this
// package keeps zero sketch dependencies.
type batchUpdater interface {
	UpdateBatch(idx []int, deltas []float64)
}

// batchQuerier is the read-side twin (sketch.BatchQuerier).
type batchQuerier interface {
	QueryBatch(idx []int, out []float64)
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j on the slot's
// shard under a single lock acquisition — one acquire/release per
// batch instead of per element, the high-throughput ingestion path.
// Replicas with a native batched path get the whole batch at once;
// others absorb it element-wise under the one lock. The shard epoch
// advances once per batch, by defer — even a batch that panics
// half-applied (possible only through the element-wise fallback) stays
// visible to the next refresh.
//
//sketch:hotpath
func (s *Sharded[S]) UpdateBatch(slot int, idx []int, deltas []float64) {
	if len(idx) != len(deltas) {
		panic(fmt.Sprintf("concurrent: batch index count %d != delta count %d", len(idx), len(deltas)))
	}
	if len(idx) == 0 {
		return // nothing to apply; don't mark snapshots stale for a no-op
	}
	sh := &s.shards[uint(slot)%uint(len(s.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.epoch.Add(1)
	if b, ok := any(sh.sk).(batchUpdater); ok {
		b.UpdateBatch(idx, deltas)
		return
	}
	for j, i := range idx {
		sh.sk.Update(i, deltas[j])
	}
}

// Snapshot is an immutable merged view of a Sharded sketch: the sum of
// every shard's state as of the Refresh that published it. Readers
// share it — neither they nor the Sharded ever mutate a published
// snapshot — so any number of goroutines may query it concurrently
// with zero locks while writers keep ingesting.
type Snapshot[S Mergeable] struct {
	owner  *Sharded[S]
	sk     S
	epochs []uint64 // per-shard epoch folded into sk
}

// Sketch returns the merged replica. It is shared and immutable:
// callers must not update or merge into it (clone it via the owner's
// Merged for a mutable copy).
func (sn *Snapshot[S]) Sketch() S { return sn.sk }

// pointBufs is the pooled one-element batch a Snapshot point query
// routes through: pooling keeps the buffers off the heap per call even
// though they escape into the replica's QueryBatch via an interface.
type pointBufs struct {
	idx [1]int
	out [1]float64
}

var pointPool = sync.Pool{New: func() any { return new(pointBufs) }}

// Query answers a point query against the snapshot, lock-free. It
// routes through the replica's batched path as a batch of one: the
// single-element Query methods of most sketches reuse per-sketch
// scratch, which concurrent readers of a shared snapshot must not
// touch, while the batched paths borrow their scratch per call.
//
//sketch:hotpath
func (sn *Snapshot[S]) Query(i int) float64 {
	pb := pointPool.Get().(*pointBufs)
	// Returned by defer: a panicking replica QueryBatch (an
	// out-of-range index, a poisoned foreign replica) must not leak the
	// pooled buffers — callers that recover the panic (a server turning
	// it into a 500) would otherwise bleed one allocation per recovery.
	defer pointPool.Put(pb)
	pb.idx[0] = i
	sn.QueryBatch(pb.idx[:], pb.out[:])
	return pb.out[0]
}

// QueryBatch answers a batch of point queries against the snapshot,
// lock-free, through the replica's native batched path when it has one
// (bit-identical to the Query loop either way). The native batched
// paths borrow pooled scratch per call, so concurrent QueryBatch calls
// on one snapshot are safe. (Replicas from outside this module without
// a QueryBatch fall back to their Query method; whether concurrent
// snapshot reads are then safe depends on that Query being
// scratch-free.)
//
//sketch:hotpath
func (sn *Snapshot[S]) QueryBatch(idx []int, out []float64) {
	if len(idx) != len(out) {
		panic(fmt.Sprintf("concurrent: batch index count %d != output count %d", len(idx), len(out)))
	}
	if b, ok := any(sn.sk).(batchQuerier); ok {
		b.QueryBatch(idx, out)
		return
	}
	for j, i := range idx {
		out[j] = sn.sk.Query(i)
	}
}

// Stale reports whether any shard has absorbed writes since this
// snapshot was published — an atomic epoch comparison, no locks. A
// false result is momentary under concurrent writers.
func (sn *Snapshot[S]) Stale() bool { return sn.owner.Moved(sn.epochs) }

// Moved reports whether any shard has absorbed writes since MergeInto
// returned epochs — an atomic epoch comparison, no locks. A false
// result is momentary under concurrent writers.
func (s *Sharded[S]) Moved(epochs []uint64) bool {
	for i := range s.shards {
		if s.shards[i].epoch.Load() != epochs[i] {
			return true
		}
	}
	return false
}

// Written reports whether any shard has ever absorbed a write — an
// atomic epoch scan, no locks. Callers about to pay for a merged copy
// (e.g. a sliding window freezing a pane) use it to skip empty shards
// sets entirely.
func (s *Sharded[S]) Written() bool {
	for i := range s.shards {
		if s.shards[i].epoch.Load() != 0 {
			return true
		}
	}
	return false
}

// Snapshot returns the current published snapshot without taking any
// shard lock, building the first one if none has been published yet.
// The view is as fresh as the last Refresh; callers that need the
// latest writes folded in call Refresh instead.
func (s *Sharded[S]) Snapshot() (*Snapshot[S], error) {
	if v := s.view.Load(); v != nil {
		return v, nil
	}
	return s.Refresh()
}

// Refresh returns a snapshot with every write so far folded in. If no
// shard's epoch moved since the published snapshot, that snapshot is
// returned as is, after an atomic epoch scan and no lock. Otherwise
// Refresh builds one fresh replica, merges every shard into it in
// shard order, and publishes it atomically. Each shard is locked
// briefly, one at a time, so a writer stalls for at most one merge.
// Merged sums the shards the same way, so both return the same sum.
// On a merge error the previous snapshot stays published.
func (s *Sharded[S]) Refresh() (*Snapshot[S], error) {
	if v := s.view.Load(); v != nil && !v.Stale() {
		return v, nil
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if v := s.view.Load(); v != nil && !v.Stale() {
		return v, nil // an earlier waiter already published it
	}
	merged, epochs, err := s.sum()
	if err != nil {
		return nil, err
	}
	snap := &Snapshot[S]{owner: s, sk: merged, epochs: epochs}
	s.view.Store(snap)
	return snap, nil
}

// Merged merges all shards into a fresh sketch that the caller owns
// exclusively and may mutate freely — the hand-off shape of the
// distributed model, as opposed to the shared read replica Snapshot
// returns. The merge locks shards one at a time, so concurrent writers
// stall only briefly; the result is a consistent sum of some
// interleaving of the updates.
func (s *Sharded[S]) Merged() (S, error) {
	out, _, err := s.sum()
	return out, err
}

// sum merges every shard into one fresh replica and returns it with
// the epoch each shard was merged at.
func (s *Sharded[S]) sum() (S, []uint64, error) {
	out := s.mk()
	epochs, err := s.MergeInto(out)
	if err != nil {
		var zero S
		return zero, nil, err
	}
	return out, epochs, nil
}

// MergeInto merges every shard, in shard order, into the caller's
// replica out and returns the epoch each shard was merged at, for
// Moved. Each shard is locked briefly, one at a time, so a writer
// stalls for at most one merge.
func (s *Sharded[S]) MergeInto(out S) ([]uint64, error) {
	epochs := make([]uint64, len(s.shards))
	for i := range s.shards {
		epoch, err := s.mergeShard(out, i)
		if err != nil {
			return nil, fmt.Errorf("concurrent: merging shard %d: %w", i, err)
		}
		epochs[i] = epoch
	}
	return epochs, nil
}

// mergeShard folds shard idx into out and returns the epoch of the
// state it folded, read under the same lock. The lock is released by
// defer so a panicking merge cannot leave the shard locked.
func (s *Sharded[S]) mergeShard(out S, idx int) (uint64, error) {
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := s.merge(out, sh.sk); err != nil {
		return 0, err
	}
	return sh.epoch.Load(), nil
}

// Query answers a point query with every write so far folded in,
// refreshing the snapshot only if some shard advanced. For query
// bursts, take one Snapshot and query it directly instead.
//
//sketch:hotpath
func (s *Sharded[S]) Query(i int) (float64, error) {
	snap, err := s.Refresh()
	if err != nil {
		return 0, err
	}
	return snap.Query(i), nil
}

// QueryBatch answers a batch of point queries with every write so far
// folded in, refreshing the snapshot only if some shard advanced.
//
//sketch:hotpath
func (s *Sharded[S]) QueryBatch(idx []int, out []float64) error {
	snap, err := s.Refresh()
	if err != nil {
		return err
	}
	snap.QueryBatch(idx, out)
	return nil
}

// Shards returns the shard count.
func (s *Sharded[S]) Shards() int { return len(s.shards) }

// Words returns the total memory across shards (P× the single-sketch
// cost — the price of contention-free writes; once snapshots are in
// use, the published merge adds one more, P+1 in all).
func (s *Sharded[S]) Words() int {
	var w int
	for idx := range s.shards {
		w += s.shards[idx].sk.Words()
	}
	return w
}
