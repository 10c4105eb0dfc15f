package concurrent

import "fmt"

// This file is the checkpoint surface the streaming codec drives: a
// Sharded's durable identity is its per-shard replica states plus the
// per-shard epochs. A refresh merges every shard into one replica in
// shard order, so restoring the same states in the same order makes a
// restored Sharded answer queries bit-identically to the original;
// the epochs carry on its staleness tracking.

// CheckpointShards invokes f once per shard, in shard order, with the
// shard's live sketch and current epoch, holding that shard's lock for
// the duration of the call: f sees a single-shard-consistent state and
// must capture (copy or serialize) what it needs without retaining sk.
// Writers on other shards proceed concurrently, so a checkpoint taken
// under load is a consistent sum of some interleaving of the updates —
// the same guarantee Merged gives. An error from f aborts the walk.
func (s *Sharded[S]) CheckpointShards(f func(i int, epoch uint64, sk S) error) error {
	for i := range s.shards {
		if err := s.checkpointShard(i, f); err != nil {
			return fmt.Errorf("concurrent: checkpointing shard %d: %w", i, err)
		}
	}
	return nil
}

// checkpointShard runs f against shard i under its lock, released by
// defer so a panicking f cannot leave the shard locked.
func (s *Sharded[S]) checkpointShard(i int, f func(int, uint64, S) error) error {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return f(i, sh.epoch.Load(), sh.sk)
}

// CheckpointShard is the single-shard form of CheckpointShards: f runs
// once against shard i under its lock, with the same capture contract.
// The delta-shipping fabric uses it to serialize only the shards whose
// epoch advanced since the last acknowledged hop, instead of walking
// (and locking) the whole replica set.
func (s *Sharded[S]) CheckpointShard(i int, f func(epoch uint64, sk S) error) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("concurrent: shard %d out of range [0,%d)", i, len(s.shards))
	}
	if err := s.checkpointShard(i, func(_ int, epoch uint64, sk S) error {
		return f(epoch, sk)
	}); err != nil {
		return fmt.Errorf("concurrent: checkpointing shard %d: %w", i, err)
	}
	return nil
}

// Epochs appends every shard's current epoch to dst and returns it —
// an atomic scan, no locks, so writers are never stalled by a staleness
// probe. Pass a slice with spare capacity to avoid the allocation. A
// shard whose epoch differs from an earlier reading has absorbed
// writes in between; under concurrent writers the vector is a
// momentary reading, exactly like Stale.
func (s *Sharded[S]) Epochs(dst []uint64) []uint64 {
	for i := range s.shards {
		dst = append(dst, s.shards[i].epoch.Load())
	}
	return dst
}

// RestoreShards rebuilds every shard from checkpointed state: f is
// invoked once per shard in shard order with the shard's replica to
// mutate in place, and returns the epoch to install — the value
// CheckpointShards reported, so the restored Sharded tracks staleness
// exactly as the original would. The published view is cleared, and
// the next read merges every restored shard, whatever its epoch, into
// one fresh replica.
//
// Restore is meant for a freshly constructed Sharded (the codec path).
// Restoring a live instance is safe with respect to locks, but
// snapshots handed out earlier keep serving the pre-restore state.
func (s *Sharded[S]) RestoreShards(f func(i int, sk S) (epoch uint64, err error)) error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	for i := range s.shards {
		if err := s.restoreShard(i, f); err != nil {
			return fmt.Errorf("concurrent: restoring shard %d: %w", i, err)
		}
	}
	s.view.Store(nil)
	return nil
}

// restoreShard runs f against shard i under its lock, installing the
// returned epoch only on success.
func (s *Sharded[S]) restoreShard(i int, f func(int, S) (uint64, error)) error {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	epoch, err := f(i, sh.sk)
	if err != nil {
		return err
	}
	sh.epoch.Store(epoch)
	return nil
}
