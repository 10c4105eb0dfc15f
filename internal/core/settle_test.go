package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortBias is the test oracle for the median-bucket estimator, Algorithm
// 4 line 2 taken literally: order the buckets by w_i/π_i (ties by id,
// the Bias-Heap's total order), drop the top and bottom (s−2k)/2, and
// average the rest; a middle without coordinates falls back to the
// global average, then to 0.
func sortBias(w, pi []float64, k int) float64 {
	s := len(w)
	ids := make([]int, s)
	for i := range ids {
		ids[i] = i
	}
	key := func(i int) float64 {
		if pi[i] == 0 {
			return 0
		}
		return w[i] / pi[i]
	}
	sort.Slice(ids, func(a, b int) bool {
		ka, kb := key(ids[a]), key(ids[b])
		if ka != kb {
			return ka < kb
		}
		return ids[a] < ids[b]
	})
	mid := 2 * k
	topSize := (s - mid) / 2
	botSize := (s - mid) - topSize
	var wSum, piSum float64
	for _, id := range ids[botSize : s-topSize] {
		wSum += w[id]
		piSum += pi[id]
	}
	if piSum > 0 {
		return wSum / piSum
	}
	var wTot, piTot float64
	for i := range w {
		wTot += w[i]
		piTot += pi[i]
	}
	if piTot > 0 {
		return wTot / piTot
	}
	return 0
}

// sortBiasOf is the oracle's β̂ for l's bucket masses. It reads the
// masses only, so it leaves l as settled or unsettled as it was.
func sortBiasOf(l *SR) float64 {
	e := l.est.(*medianBucketEstimator)
	return sortBias(e.w, e.pi, e.k)
}

func isSettled(l *SR) bool { return l.est.(*medianBucketEstimator).settled.Load() }

// settledL2SR returns a replica read before its first update, so the
// Bias-Heap keeps its order per update from the start.
func settledL2SR(cfg Config, seed int64) *SR {
	l := NewL2SR(cfg, rand.New(rand.NewSource(seed)))
	l.Bias()
	return l
}

// An ℓ2-S/R replica orders its bias buckets only when it is first read.
// Construction, updates, merges and restores leave it unsettled, and
// every read settles it. A settled replica keeps its order per update
// and answers bit for bit like the sort of its masses and like a twin
// that was never read. A merge or a restore unsettles it again.
func TestSettleOnFirstRead(t *testing.T) {
	const n = 4096
	b := NewL2Basis(Config{N: n, K: 16}, rand.New(rand.NewSource(71)))
	r := rand.New(rand.NewSource(72))
	batch := func() ([]int, []float64) {
		idx := make([]int, 1+r.Intn(400))
		deltas := make([]float64, len(idx))
		for j := range idx {
			idx[j] = r.Intn(n)
			deltas[j] = float64(r.Intn(21) - 5)
		}
		return idx, deltas
	}
	idx, deltas := batch()
	fed := func() *SR {
		l := b.New()
		l.UpdateBatch(idx, deltas)
		return l
	}
	src := fed()
	keys := make([]int, n)
	out := make([]float64, n)

	writes := map[string]func(l *SR) error{
		"Update":         func(l *SR) error { l.Update(7, 3); return nil },
		"UpdateBatch":    func(l *SR) error { l.UpdateBatch(idx, deltas); return nil },
		"MergeFrom":      func(l *SR) error { return l.MergeFrom(src) },
		"UnmarshalState": func(l *SR) error { return l.UnmarshalState(src.MarshalState()) },
	}
	if isSettled(b.New()) {
		t.Fatal("New returned a settled replica")
	}
	for name, write := range writes {
		l := b.New()
		for range 2 {
			if err := write(l); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if isSettled(l) {
			t.Fatalf("%s settled an unread replica", name)
		}
	}

	reads := map[string]func(l *SR){
		"Bias":         func(l *SR) { l.Bias() },
		"Query":        func(l *SR) { l.Query(3) },
		"QueryBatch":   func(l *SR) { l.QueryBatch(idx, out[:len(idx)]) },
		"ScanRange":    func(l *SR) { l.ScanRange(0, n, 1, keys, out) },
		"TailEstimate": func(l *SR) { l.TailEstimate() },
	}
	for name, read := range reads {
		l := fed()
		read(l)
		if !isSettled(l) {
			t.Fatalf("%s left the replica unsettled", name)
		}
	}

	settled, cold := fed(), fed()
	settled.Bias()
	for round := 0; round < 20; round++ {
		idx, deltas := batch()
		if round%2 == 0 {
			settled.UpdateBatch(idx, deltas)
			cold.UpdateBatch(idx, deltas)
		} else {
			for j, i := range idx {
				settled.Update(i, deltas[j])
				cold.Update(i, deltas[j])
			}
		}
		if !isSettled(settled) {
			t.Fatalf("round %d: an update unsettled a settled replica", round)
		}
		if got, want := settled.Bias(), sortBiasOf(cold); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: settled Bias %v, sort %v", round, got, want)
		}
	}
	if isSettled(cold) {
		t.Fatal("the oracle settled the replica it read")
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	want := make([]float64, n)
	got := make([]float64, n)
	cold.QueryBatch(all, want)
	settled.QueryBatch(all, got)
	if g, w := settled.Bias(), cold.Bias(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("settled Bias %v, never-read twin %v", g, w)
	}
	for i := range all {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("key %d: settled %v, never-read twin %v", i, got[i], want[i])
		}
	}

	for _, name := range []string{"MergeFrom", "UnmarshalState"} {
		l := fed()
		l.Bias()
		if err := writes[name](l); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if isSettled(l) {
			t.Fatalf("%s left a settled replica settled", name)
		}
		if g, w := l.Bias(), sortBiasOf(l); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("after %s: Bias %v, sort %v", name, g, w)
		}
	}
}
