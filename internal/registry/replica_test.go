package registry

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sketch"
)

// replicaShape is a shape every entry accepts, with n not a multiple
// of Recover's chunk, so the last chunk is partial.
var replicaShape = Shape{N: 3000, S: 64, D: 5, Seed: 7}

// filledReplica builds one replica of the named entry and feeds it
// insert-only integer deltas, which every entry accepts.
func filledReplica(t *testing.T, name string) sketch.Sketch {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s: not registered", name)
	}
	sk := e.MustNew(replicaShape)
	r := rand.New(rand.NewSource(8))
	idx := make([]int, 2000)
	deltas := make([]float64, len(idx))
	for j := range idx {
		idx[j] = r.Intn(replicaShape.N)
		deltas[j] = float64(r.Intn(5))
	}
	sk.UpdateBatch(idx, deltas)
	return sk
}

// Readers of one replica that no one writes may call QueryBatch at
// once, as the readers of a shared snapshot do: on every entry, each
// of 8 readers gets reader 0's answers bit for bit, and the race
// detector sees no reader write shared state.
func TestSharedReplicaConcurrentQueryBatch(t *testing.T) {
	const readers = 8
	for _, name := range Names() {
		sk := filledReplica(t, name)
		idx := rand.New(rand.NewSource(9)).Perm(replicaShape.N)[:512]
		outs := make([][]float64, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range outs {
			outs[g] = make([]float64, len(idx))
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				sk.QueryBatch(idx, outs[g])
			}()
		}
		close(start)
		wg.Wait()
		for g := 1; g < readers; g++ {
			for j, i := range idx {
				if math.Float64bits(outs[g][j]) != math.Float64bits(outs[0][j]) {
					t.Fatalf("%s: reader %d answered %v for %d, reader 0 %v", name, g, outs[g][j], i, outs[0][j])
				}
			}
		}
	}
}

// sketch.Recover, which queries in chunks through QueryBatch, equals
// the Query loop bit for bit on every entry.
func TestRecoverMatchesQueryLoopEveryEntry(t *testing.T) {
	for _, name := range Names() {
		sk := filledReplica(t, name)
		got := sketch.Recover(sk)
		if len(got) != replicaShape.N {
			t.Fatalf("%s: Recover length %d, want %d", name, len(got), replicaShape.N)
		}
		for i, v := range got {
			if want := sk.Query(i); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s: Recover[%d] = %v, Query = %v", name, i, v, want)
			}
		}
	}
}
