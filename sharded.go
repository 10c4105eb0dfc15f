package repro

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/concurrent"
	"repro/internal/heavyhitter"
	"repro/internal/registry"
	"repro/internal/sketch"
)

// Sharded is a linear sketch prepared for multi-goroutine ingestion
// and serving: P private replicas built with the same configuration
// and seed absorb updates contention-free, and — by the same linearity
// that powers the distributed model — readers consume merged views.
//
// The read side is snapshot-based. Every shard carries an epoch bumped
// on each write; Snapshot returns the current published read replica —
// an immutable merged sum served with zero shard locks — and Refresh
// folds in the shards that changed since the last refresh (locking
// only those, briefly, one at a time) before atomically swapping a new
// replica in. A snapshot is therefore as fresh as the last Refresh:
// writes land in it only when some reader (or Query/QueryBatch, which
// refresh on staleness) next refreshes, never retroactively. Total
// memory is up to 2P+1 single-sketch replicas (the P shards, lazily
// made frozen copies of written shards, and the published snapshot) —
// the price of contention-free writes and coordination-free reads.
type Sharded struct {
	inner *concurrent.Sharded[sketch.Sketch]
	entry *registry.Entry
	desc  codec.Desc
}

// NewSharded builds a sharded sketch with the given shard count; algo
// and opts are exactly New's. Non-linear algorithms (cmcu, cmlcu)
// return ErrNotLinear — without linearity the shards could not be
// recombined.
func NewSharded(shards int, algo string, opts ...Option) (*Sharded, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrInvalidOption, shards)
	}
	e, ok := registry.Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("%w: %q (valid: %v)", ErrUnknownAlgorithm, algo, Algorithms())
	}
	if !e.Linear {
		return nil, fmt.Errorf("%w: %s", ErrNotLinear, e.Name)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	mk := func() sketch.Sketch { return e.MustNew(cfg.shape()) }
	inner, err := newShards(e.Name, shards, mk)
	if err != nil {
		return nil, err
	}
	return &Sharded{
		inner: inner,
		entry: e,
		desc:  codec.Desc{Algo: e.Name, N: cfg.dim, S: cfg.words, D: cfg.depth, Seed: cfg.seed},
	}, nil
}

// newShards builds the replica set, converting a constructor panic (a
// parameter combination the algorithm rejects) into an error without
// paying for a throwaway probe sketch.
func newShards(algo string, shards int, mk func() sketch.Sketch) (s *concurrent.Sharded[sketch.Sketch], err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("repro: constructing %s: %v", algo, r)
		}
	}()
	return concurrent.New(shards, mk, registry.Merge), nil
}

// Update applies x[i] += delta on the shard owning the caller's slot.
// slot is any caller-chosen integer (e.g. a worker id); updates with
// the same slot serialize, different slots proceed in parallel.
func (s *Sharded) Update(slot, i int, delta float64) { s.inner.Update(slot, i, delta) }

// Checkpoint writes the Sharded's full state to w as a wire-format v2
// checkpoint container: the descriptor, then every shard's replica
// state with its epoch, so RestoreSharded rebuilds a Sharded that
// answers Query/QueryBatch/TopK bit-identically — same shards, same
// epochs, same snapshot merge order. Safe under concurrent writers:
// each shard is captured under its own lock, so the checkpoint is a
// consistent sum of some interleaving of the updates, exactly the
// Merged guarantee.
func (s *Sharded) Checkpoint(w io.Writer) error {
	if err := codec.EncodeSharded(w, s.desc, s.inner); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// RestoreSharded reconstructs a Sharded from a Checkpoint stream: the
// replica set is rebuilt from the descriptor through the registry (the
// shared-randomness protocol — same seed, same hash functions) and
// every shard's state and epoch is restored. The result ingests,
// snapshots, and checkpoints like the original.
func RestoreSharded(r io.Reader) (*Sharded, error) {
	inner, desc, err := codec.DecodeSharded(r)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	e, ok := registry.Lookup(desc.Algo)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, desc.Algo)
	}
	desc.Algo = e.Name
	return &Sharded{inner: inner, entry: e, desc: desc}, nil
}

// UpdateBatch applies x[idx[j]] += deltas[j] for every j on the slot's
// shard under a single lock acquisition — one acquire/release per
// batch instead of per element, on top of the replica's own row-major
// batched path. A length mismatch returns an error before any update
// is applied.
func (s *Sharded) UpdateBatch(slot int, idx []int, deltas []float64) error {
	if len(idx) != len(deltas) {
		return fmt.Errorf("%w: %d indexes, %d deltas", ErrBadBatch, len(idx), len(deltas))
	}
	s.inner.UpdateBatch(slot, idx, deltas)
	return nil
}

// Snapshot returns the current published read replica — an immutable
// merged view served with zero shard locks, shared by every caller, so
// any number of goroutines may query it concurrently while writers
// keep ingesting. The view is as fresh as the last Refresh (the first
// call builds one); call Refresh to fold newer writes in, and Merged
// for a mutable caller-owned sketch.
func (s *Sharded) Snapshot() (*Snapshot, error) {
	v, err := s.inner.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &Snapshot{view: v, entry: s.entry, desc: s.desc}, nil
}

// Refresh folds the shards that changed since the last refresh into a
// new published snapshot and returns it. Only the changed shards are
// locked — briefly, one at a time — so writers stall at most for one
// state copy; unchanged shards are not touched at all.
func (s *Sharded) Refresh() (*Snapshot, error) {
	v, err := s.inner.Refresh()
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &Snapshot{view: v, entry: s.entry, desc: s.desc}, nil
}

// Merged merges all shards into a fresh sketch the caller owns
// exclusively — a consistent sum of some interleaving of the updates,
// exactly the semantics of the distributed model. The result is a full
// facade sketch: it updates, merges, and marshals like any other, at
// the cost of locking every shard (one at a time) to build.
func (s *Sharded) Merged() (Sketch, error) {
	snap, err := s.inner.Merged()
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return wrap(s.entry, snap, s.desc), nil
}

// Query answers a point query with every write so far folded in; the
// snapshot is refreshed only if some shard changed since the last one.
// For query bursts, take one Snapshot and query it directly instead.
func (s *Sharded) Query(i int) (float64, error) {
	v, err := s.inner.Query(i)
	if err != nil {
		return 0, fmt.Errorf("repro: %w", err)
	}
	return v, nil
}

// QueryBatch writes an estimate of x[idx[j]] into out[j] for every j
// with every write so far folded in, through the replica's native
// batched query path; the snapshot is refreshed only if some shard
// changed since the last one. A length mismatch returns an error
// before anything is written.
func (s *Sharded) QueryBatch(idx []int, out []float64) error {
	if len(idx) != len(out) {
		return fmt.Errorf("%w: %d indexes, %d outputs", ErrBadBatch, len(idx), len(out))
	}
	if err := s.inner.QueryBatch(idx, out); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// Algo returns the canonical algorithm name.
func (s *Sharded) Algo() string { return s.entry.Name }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.inner.Shards() }

// Dim returns the dimension of the summarized vector.
func (s *Sharded) Dim() int { return s.desc.N }

// Words returns total memory across shards.
func (s *Sharded) Words() int { return s.inner.Words() }

// Snapshot is an immutable merged view of a Sharded sketch, published
// by Refresh and shared by every reader. All read methods are safe for
// any number of concurrent goroutines and take zero shard locks —
// Query routes single queries through the allocation-per-call batched
// path precisely so that no per-sketch scratch is shared between
// readers. A snapshot never changes after publication: writes that
// land after the Refresh that built it are visible only in later
// snapshots (check Stale, refresh via the owning Sharded).
type Snapshot struct {
	view  *concurrent.Snapshot[sketch.Sketch]
	entry *registry.Entry
	desc  codec.Desc
}

// Query returns an estimate of x[i] as of the snapshot.
func (sn *Snapshot) Query(i int) float64 { return sn.view.Query(i) }

// QueryBatch writes an estimate of x[idx[j]] into out[j] for every j,
// as of the snapshot, through the replica's native batched query path
// (bit-identical to the element-wise Query loop). A length mismatch
// returns an error before anything is written.
func (sn *Snapshot) QueryBatch(idx []int, out []float64) error {
	if len(idx) != len(out) {
		return fmt.Errorf("%w: %d indexes, %d outputs", ErrBadBatch, len(idx), len(out))
	}
	sn.view.QueryBatch(idx, out)
	return nil
}

// Bias returns the bias estimate β̂ as of the snapshot, or ErrNoBias
// for algorithms that do not track one.
func (sn *Snapshot) Bias() (float64, error) {
	b, ok := sn.view.Sketch().(interface{ Bias() float64 })
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoBias, sn.entry.Name)
	}
	return b.Bias(), nil
}

// TopK returns the k coordinates deviating most from the bias estimate
// as of the snapshot, sorted by decreasing deviation, through the
// batched query path. ErrNoBias unless the algorithm is bias-aware.
func (sn *Snapshot) TopK(k int) ([]Deviator, error) {
	b, ok := sn.view.Sketch().(heavyhitter.BiasedSketch)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBias, sn.entry.Name)
	}
	return heavyhitter.TopK(b, k), nil
}

// Scan returns every coordinate whose estimated deviation from the
// bias exceeds threshold as of the snapshot, sorted by decreasing
// deviation, through the batched query path. ErrNoBias unless the
// algorithm is bias-aware.
func (sn *Snapshot) Scan(threshold float64) ([]Deviator, error) {
	b, ok := sn.view.Sketch().(heavyhitter.BiasedSketch)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBias, sn.entry.Name)
	}
	return heavyhitter.Scan(b, threshold), nil
}

// Stale reports whether any shard has absorbed writes since this
// snapshot was published — an atomic comparison, no locks. A false
// result is momentary under concurrent writers.
func (sn *Snapshot) Stale() bool { return sn.view.Stale() }

// Owned clones the snapshot into a fresh caller-owned facade sketch
// that updates, merges, and marshals like any other — without taking
// any shard lock (the clone merges from the immutable replica, not
// from the live shards).
func (sn *Snapshot) Owned() (Sketch, error) {
	fresh, err := registry.SafeNew(sn.entry.Name, sn.desc.Shape())
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	if err := registry.Merge(fresh, sn.view.Sketch()); err != nil {
		return nil, fmt.Errorf("repro: cloning snapshot: %w", err)
	}
	return wrap(sn.entry, fresh, sn.desc), nil
}

// Algo returns the canonical algorithm name.
func (sn *Snapshot) Algo() string { return sn.entry.Name }

// Dim returns the dimension of the summarized vector.
func (sn *Snapshot) Dim() int { return sn.desc.N }

// Words returns the size of the merged replica in 64-bit words (one
// single-sketch cost, not the P× sharded total).
func (sn *Snapshot) Words() int { return sn.view.Sketch().Words() }
