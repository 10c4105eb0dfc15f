package concurrent

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// Checkpoint → restore into a fresh Sharded must reproduce per-shard
// state, epochs, and snapshot answers exactly.
func TestCheckpointRestoreShards(t *testing.T) {
	src := New(3, mkL2(9), mergeL2)
	r := rand.New(rand.NewSource(5))
	for u := 0; u < 9000; u++ {
		src.Update(u%3, r.Intn(10000), float64(1+r.Intn(4)))
	}

	// Capture: clone each shard (the codec serializes instead).
	var states []*core.L2SR
	var epochs []uint64
	err := src.CheckpointShards(func(i int, epoch uint64, sk *core.L2SR) error {
		cp := mkL2(9)()
		if err := cp.MergeFrom(sk); err != nil {
			return err
		}
		states = append(states, cp)
		epochs = append(epochs, epoch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 {
		t.Fatalf("captured %d shards", len(states))
	}
	for i, e := range epochs {
		if e == 0 {
			t.Fatalf("shard %d never written?", i)
		}
	}

	dst := New(3, mkL2(9), mergeL2)
	err = dst.RestoreShards(func(i int, sk *core.L2SR) (uint64, error) {
		return epochs[i], sk.MergeFrom(states[i])
	})
	if err != nil {
		t.Fatal(err)
	}

	// Epochs restored verbatim.
	var gotEpochs []uint64
	_ = dst.CheckpointShards(func(i int, epoch uint64, _ *core.L2SR) error {
		gotEpochs = append(gotEpochs, epoch)
		return nil
	})
	for i := range epochs {
		if gotEpochs[i] != epochs[i] {
			t.Fatalf("shard %d epoch %d != %d", i, gotEpochs[i], epochs[i])
		}
	}

	// Snapshot answers identical (same shard states, same merge order).
	a, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i += 97 {
		if x, y := a.Query(i), b.Query(i); x != y {
			t.Fatalf("query %d: %v != %v", i, x, y)
		}
	}
	if a.Sketch().Bias() != b.Sketch().Bias() {
		t.Fatal("bias diverged")
	}

	// The restored instance keeps absorbing writes.
	dst.Update(1, 7, 3)
	snap, err := dst.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stale() {
		t.Fatal("fresh refresh reported stale")
	}
}

// Restoring over a Sharded that already published a snapshot must
// clear the view: the next read reflects restored state, not the
// pre-restore merge.
func TestRestoreShardsResetsSnapshots(t *testing.T) {
	s := New(2, mkL2(11), mergeL2)
	s.Update(0, 42, 100)
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	empty := mkL2(11)().MarshalState()
	err := s.RestoreShards(func(i int, sk *core.L2SR) (uint64, error) {
		return 0, sk.UnmarshalState(empty) // empty state, never written
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v := snap.Query(42); v != 0 {
		t.Fatalf("pre-restore state leaked into snapshot: %v", v)
	}
}

// Callback errors abort both walks with the shard named, and a
// failing restore leaves no lock held.
func TestCheckpointRestoreErrorsPropagate(t *testing.T) {
	s := New(2, mkL2(12), mergeL2)
	s.Update(0, 1, 1)
	boom := errors.New("boom")
	if err := s.CheckpointShards(func(i int, _ uint64, _ *core.L2SR) error {
		if i == 1 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("checkpoint error = %v", err)
	}
	if err := s.RestoreShards(func(i int, _ *core.L2SR) (uint64, error) {
		if i == 1 {
			return 0, boom
		}
		return 1, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("restore error = %v", err)
	}
	// Locks released: further writes and reads proceed.
	s.Update(1, 2, 1)
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// Checkpointing while writers are running must see per-shard-consistent
// state (run with -race).
func TestCheckpointUnderWriters(t *testing.T) {
	s := New(4, mkL2(13), mergeL2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for u := 0; ; u++ {
				select {
				case <-stop:
					return
				default:
					s.Update(slot, (u+slot*7)%10000, 1)
				}
			}
		}(w)
	}
	for k := 0; k < 30; k++ {
		prev := make([]uint64, 0, 4)
		err := s.CheckpointShards(func(i int, epoch uint64, sk *core.L2SR) error {
			prev = append(prev, epoch)
			_ = sk.Query(5)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(prev) != 4 {
			t.Fatalf("saw %d shards", len(prev))
		}
	}
	close(stop)
	wg.Wait()
}

// counters is a tiny Mergeable Sharded for the single-shard capture
// and epoch-scan tests: per-shard plainCounter replicas.
func newCounters(p int) *Sharded[*plainCounter] {
	return New(p,
		func() *plainCounter { return &plainCounter{x: make([]float64, 16)} },
		func(dst, src *plainCounter) error {
			for i, v := range src.x {
				dst.x[i] += v
			}
			return nil
		})
}

func TestCheckpointShardSingle(t *testing.T) {
	s := newCounters(4)
	s.Update(2, 7, 1)
	s.Update(2, 7, 1)
	var gotEpoch uint64
	var got float64
	if err := s.CheckpointShard(2, func(epoch uint64, sk *plainCounter) error {
		gotEpoch = epoch
		got = sk.Query(7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gotEpoch != 2 || got != 2 {
		t.Fatalf("shard 2: epoch %d value %v, want 2 and 2", gotEpoch, got)
	}
	if err := s.CheckpointShard(-1, func(uint64, *plainCounter) error { return nil }); err == nil {
		t.Error("negative shard index accepted")
	}
	if err := s.CheckpointShard(4, func(uint64, *plainCounter) error { return nil }); err == nil {
		t.Error("out-of-range shard index accepted")
	}
	wantErr := errors.New("capture failed")
	err := s.CheckpointShard(1, func(uint64, *plainCounter) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("capture error not propagated: %v", err)
	}
}

func TestEpochsLockFreeScan(t *testing.T) {
	s := newCounters(3)
	if got := s.Epochs(nil); len(got) != 3 || got[0]|got[1]|got[2] != 0 {
		t.Fatalf("fresh epochs = %v, want zeros", got)
	}
	s.Update(0, 1, 1)
	s.Update(0, 1, 1)
	s.Update(1, 2, 1)
	got := s.Epochs(make([]uint64, 0, 3))
	if got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("epochs = %v, want [2 1 0]", got)
	}
	// Appends to dst, preserving its prefix.
	pre := s.Epochs([]uint64{99})
	if pre[0] != 99 || len(pre) != 4 {
		t.Fatalf("Epochs must append to dst: %v", pre)
	}
}
