package registry

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sketch"
)

// basisOf builds a sketch by name and returns the basis the cache
// handed it, with the sketch that keeps that basis alive.
func basisOf(t *testing.T, name string, sh Shape) (sketch.Sketch, any) {
	t.Helper()
	e, _ := Lookup(name)
	sk := e.MustNew(sh)
	bases.mu.Lock()
	defer bases.mu.Unlock()
	wp, ok := bases.m[basisKey{e.Name, sh}]
	if !ok {
		t.Fatalf("%s: no cached basis after a construction", name)
	}
	return sk, wp.Value()
}

// Constructions by name share one basis per (entry, shape): a second
// construction gets the first one's basis, while another seed or
// another entry of the same shape gets its own.
func TestBasisSharedPerEntryAndShape(t *testing.T) {
	sh := Shape{N: 4096, S: 64, D: 5, Seed: 31}
	other := sh
	other.Seed = 32
	for _, name := range []string{L1SR, L2SR, L1Mean, L2Mean} {
		ska, a := basisOf(t, name, sh)
		skb, b := basisOf(t, name, sh)
		skc, c := basisOf(t, name, other)
		if a != b {
			t.Errorf("%s: two constructions of one shape got different bases", name)
		}
		if c == a {
			t.Errorf("%s: another seed shared the basis", name)
		}
		if err := Merge(ska, skb); err != nil {
			t.Errorf("%s: replicas of one basis do not merge: %v", name, err)
		}
		runtime.KeepAlive(skc)
	}
	sk1, l1 := basisOf(t, L1SR, sh)
	skm, lm := basisOf(t, L1Mean, sh)
	if l1 == lm {
		t.Error("l1sr and l1mean of one shape shared a basis")
	}
	runtime.KeepAlive(sk1)
	runtime.KeepAlive(skm)
}

// cached reports whether the basis cache holds an entry for key.
func cached(key basisKey) bool {
	bases.mu.Lock()
	defer bases.mu.Unlock()
	_, ok := bases.m[key]
	return ok
}

// The cache holds its bases weakly: once every sketch of a shape is
// gone, the basis is collected and its entry dropped, so a process
// that cycles through seeds cannot grow the cache.
func TestBasisCacheDropsCollectedBasis(t *testing.T) {
	for _, name := range []string{L1SR, L2SR} {
		sh := Shape{N: 1 << 12, S: 64, D: 5, Seed: 4711}
		key := basisKey{name, sh}
		e, _ := Lookup(name)
		sk := e.MustNew(sh)
		sk.Update(3, 1)
		sk.Query(3)
		if !cached(key) {
			t.Fatalf("%s: no cache entry after a construction", name)
		}
		runtime.KeepAlive(sk)
		sk = nil
		deadline := time.Now().Add(10 * time.Second)
		for cached(key) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: cache entry outlived every sketch of its shape", name)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
}

// Goroutines that build replicas by name on one fresh shape and run
// their first QueryBatch at the same time all wait for one lazy π/ψ
// build and agree bit for bit.
func TestConcurrentFirstQueryBatch(t *testing.T) {
	const workers = 8
	for _, name := range []string{L1SR, L2SR} {
		sh := Shape{N: 1 << 14, S: 256, D: 7, Seed: 5150}
		e, _ := Lookup(name)
		r := rand.New(rand.NewSource(6))
		idx := make([]int, 512)
		deltas := make([]float64, len(idx))
		for j := range idx {
			idx[j] = r.Intn(sh.N)
			deltas[j] = float64(r.Intn(9) - 2)
		}
		start := make(chan struct{})
		outs := make([][]float64, workers)
		var wg sync.WaitGroup
		for g := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sk := e.MustNew(sh)
				sk.UpdateBatch(idx, deltas)
				<-start
				outs[g] = make([]float64, len(idx))
				sk.QueryBatch(idx, outs[g])
			}()
		}
		close(start)
		wg.Wait()
		for g := 1; g < workers; g++ {
			for j := range idx {
				if math.Float64bits(outs[g][j]) != math.Float64bits(outs[0][j]) {
					t.Fatalf("%s: reader %d answered %v for %d, reader 0 %v", name, g, outs[g][j], idx[j], outs[0][j])
				}
			}
		}
	}
}
