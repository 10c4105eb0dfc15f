package core

import (
	"math"
	"math/rand"
	"testing"
)

// A heap-backed ℓ2-S/R rebuilds its Bias-Heap once per merge and once
// per restore instead of replaying every bucket. On integer updates,
// where every sum is exact, the merge of three sites and the restore
// of that merge must answer Query, QueryBatch and Bias bit for bit
// like one sketch fed every update.
func TestHeapRebuildMatchesWhole(t *testing.T) {
	const n, updates = 1 << 14, 30000
	for _, k := range []int{16, 1024} { // s = 4k = 64 and 4096
		b := NewL2Basis(Config{N: n, K: k}, rand.New(rand.NewSource(51)))
		whole := b.New()
		sites := []*SR{b.New(), b.New(), b.New()}
		r := rand.New(rand.NewSource(52))
		for u := 0; u < updates; u++ {
			i, delta := r.Intn(n), float64(r.Intn(41)-10)
			if u%4999 == 0 {
				delta = 1e6 // an outlier now and then
			}
			whole.Update(i, delta)
			sites[u%len(sites)].Update(i, delta)
		}
		merged := b.New()
		for _, s := range sites {
			if err := merged.MergeFrom(s); err != nil {
				t.Fatal(err)
			}
		}
		restored := b.New()
		if err := restored.UnmarshalState(merged.MarshalState()); err != nil {
			t.Fatal(err)
		}

		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		want := make([]float64, n)
		whole.QueryBatch(idx, want)
		for name, l := range map[string]*SR{"merged": merged, "restored": restored} {
			if g, w := l.Bias(), whole.Bias(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("s=%d %s: Bias %v, want %v", 4*k, name, g, w)
			}
			got := make([]float64, n)
			l.QueryBatch(idx, got)
			for i := range idx {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("s=%d %s: QueryBatch[%d] = %v, want %v", 4*k, name, i, got[i], want[i])
				}
				if q := l.Query(i); math.Float64bits(q) != math.Float64bits(want[i]) {
					t.Fatalf("s=%d %s: Query(%d) = %v, want %v", 4*k, name, i, q, want[i])
				}
			}
		}
	}
}
