package sketch

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// π must count every coordinate exactly once per row (columns of a
// CM-matrix each have exactly one 1).
func TestColumnCountsSumToN(t *testing.T) {
	cfg := Config{N: 5000, Rows: 64, Depth: 4}
	cm := must(NewCountMedian(cfg, rand.New(rand.NewSource(1))))
	for tr := 0; tr < cfg.Depth; tr++ {
		pi := cm.ColumnCounts(tr)
		if len(pi) != cfg.Rows {
			t.Fatalf("row %d: len(pi) = %d", tr, len(pi))
		}
		var sum float64
		for _, v := range pi {
			sum += v
		}
		if sum != float64(cfg.N) {
			t.Errorf("row %d: sum(pi) = %f, want %d", tr, sum, cfg.N)
		}
	}
	// Cached: same slice on second call.
	if &cm.ColumnCounts(0)[0] != &cm.ColumnCounts(0)[0] {
		t.Error("ColumnCounts not cached")
	}
}

// π must agree with the bucket assignment: updating coordinate i by 1
// lands in bucket BucketIndex(t, i), and that bucket's π counts i.
func TestColumnCountsMatchBucketIndex(t *testing.T) {
	cfg := Config{N: 300, Rows: 16, Depth: 3}
	cm := must(NewCountMedian(cfg, rand.New(rand.NewSource(2))))
	for tr := 0; tr < cfg.Depth; tr++ {
		counts := make([]float64, cfg.Rows)
		for i := 0; i < cfg.N; i++ {
			counts[cm.BucketIndex(tr, i)]++
		}
		pi := cm.ColumnCounts(tr)
		for b := range counts {
			if counts[b] != pi[b] {
				t.Fatalf("row %d bucket %d: recount %f != pi %f", tr, b, counts[b], pi[b])
			}
		}
	}
}

// Sketching the all-ones vector must produce exactly π in every row:
// Π(h)·1 = π by definition.
func TestColumnCountsViaAllOnes(t *testing.T) {
	cfg := Config{N: 1000, Rows: 32, Depth: 5}
	cm := must(NewCountMedian(cfg, rand.New(rand.NewSource(3))))
	for i := 0; i < cfg.N; i++ {
		cm.Update(i, 1)
	}
	for tr := 0; tr < cfg.Depth; tr++ {
		pi := cm.ColumnCounts(tr)
		for b := 0; b < cfg.Rows; b++ {
			if got := cm.Bucket(tr, b); got != pi[b] {
				t.Fatalf("row %d bucket %d: Π·1 = %f != π = %f", tr, b, got, pi[b])
			}
		}
	}
}

// Likewise Ψ(h,r)·1 = ψ for the Count-Sketch.
func TestSignedColumnSumsViaAllOnes(t *testing.T) {
	cfg := Config{N: 1000, Rows: 32, Depth: 5}
	cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(4))))
	for i := 0; i < cfg.N; i++ {
		cs.Update(i, 1)
	}
	for tr := 0; tr < cfg.Depth; tr++ {
		psi := cs.SignedColumnSums(tr)
		if len(psi) != cfg.Rows {
			t.Fatalf("row %d: len(psi) = %d", tr, len(psi))
		}
		for b := 0; b < cfg.Rows; b++ {
			if got := cs.Bucket(tr, b); math.Abs(got-psi[b]) > 1e-12 {
				t.Fatalf("row %d bucket %d: Ψ·1 = %f != ψ = %f", tr, b, got, psi[b])
			}
		}
	}
}

// ψ must be consistent with SignOf and BucketIndex.
func TestSignedColumnSumsMatchSigns(t *testing.T) {
	cfg := Config{N: 500, Rows: 16, Depth: 3}
	cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(5))))
	for tr := 0; tr < cfg.Depth; tr++ {
		sums := make([]float64, cfg.Rows)
		for i := 0; i < cfg.N; i++ {
			sums[cs.BucketIndex(tr, i)] += cs.SignOf(tr, i)
			if s := cs.SignOf(tr, i); s != 1 && s != -1 {
				t.Fatalf("SignOf(%d,%d) = %f", tr, i, s)
			}
		}
		psi := cs.SignedColumnSums(tr)
		for b := range sums {
			if sums[b] != psi[b] {
				t.Fatalf("row %d bucket %d: recomputed %f != psi %f", tr, b, sums[b], psi[b])
			}
		}
	}
}

func TestCountMinMarshalRoundTrip(t *testing.T) {
	cfg := Config{N: 200, Rows: 16, Depth: 3}
	a := must(NewCountMin(cfg, rand.New(rand.NewSource(6))))
	for i := 0; i < 500; i++ {
		a.Update(i%cfg.N, 2)
	}
	b := must(NewCountMin(cfg, rand.New(rand.NewSource(6))))
	if err := b.Unmarshal(a.Marshal()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i++ {
		if a.Query(i) != b.Query(i) {
			t.Fatalf("mismatch at %d", i)
		}
	}
	if a.Words() != cfg.Rows*cfg.Depth {
		t.Errorf("Words = %d", a.Words())
	}
}

func TestDimAccessors(t *testing.T) {
	cfg := Config{N: 77, Rows: 8, Depth: 2}
	r := rand.New(rand.NewSource(7))
	for name, s := range map[string]Sketch{
		"cmcu":  must(NewCMCU(cfg, r)),
		"cmlcu": must(NewCMLCU(cfg, DefaultCMLBase, r)),
		"cs":    must(NewCountSketch(cfg, r)),
	} {
		if s.Dim() != 77 {
			t.Errorf("%s: Dim = %d", name, s.Dim())
		}
		if s.Words() < cfg.Rows*cfg.Depth {
			t.Errorf("%s: Words = %d", name, s.Words())
		}
	}
}

func TestDengRafieiRejectsOneRow(t *testing.T) {
	if _, err := NewDengRafiei(Config{N: 10, Rows: 1, Depth: 2}, rand.New(rand.NewSource(8))); !errors.Is(err, ErrConfig) {
		t.Fatalf("Rows < 2: got %v, want ErrConfig", err)
	}
}

// The batched and all-rows accessors the bias-aware recoveries build
// on must agree with the per-row point accessors, and the cache-sharing
// helpers must adopt a source's π/ψ only when the hashes match.
func TestColumnAccessorsAgree(t *testing.T) {
	cfg := Config{N: 400, Rows: 32, Depth: 4}
	cm := must(NewCountMedian(cfg, rand.New(rand.NewSource(6))))
	cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(6))))
	idx := []int{0, 7, 99, 250, 399}
	for _, i := range idx {
		cm.Update(i, float64(i+1))
		cs.Update(i, float64(i+1))
	}
	hb := make([]int, len(idx))
	sg := make([]float64, len(idx))
	for tr := 0; tr < cfg.Depth; tr++ {
		cm.BucketIndexMany(tr, idx, hb)
		for j, i := range idx {
			if hb[j] != cm.BucketIndex(tr, i) || cm.Row(tr)[hb[j]] != cm.Bucket(tr, hb[j]) {
				t.Fatalf("countmedian row %d elem %d: batched accessors disagree", tr, j)
			}
		}
		cs.BucketIndexMany(tr, idx, hb)
		cs.SignOfMany(tr, idx, sg)
		for j, i := range idx {
			if hb[j] != cs.BucketIndex(tr, i) || sg[j] != cs.SignOf(tr, i) || cs.Row(tr)[hb[j]] != cs.Bucket(tr, hb[j]) {
				t.Fatalf("countsketch row %d elem %d: batched accessors disagree", tr, j)
			}
		}
	}
	rows := make([]int, cfg.Depth)
	signs := make([]float64, cfg.Depth)
	for _, i := range idx {
		cm.BucketIndexes(i, rows)
		for tr, b := range rows {
			if b != cm.BucketIndex(tr, i) {
				t.Fatalf("countmedian BucketIndexes(%d)[%d] = %d", i, tr, b)
			}
		}
		cs.BucketIndexes(i, rows)
		cs.SignsOf(i, signs)
		for tr := range rows {
			if rows[tr] != cs.BucketIndex(tr, i) || signs[tr] != cs.SignOf(tr, i) {
				t.Fatalf("countsketch all-rows accessors disagree at %d row %d", i, tr)
			}
		}
	}

	twinM := must(NewCountMedian(cfg, rand.New(rand.NewSource(6))))
	otherM := must(NewCountMedian(cfg, rand.New(rand.NewSource(7))))
	pi := cm.ColumnCounts(0)
	otherM.ShareColumnCounts(cm)
	twinM.ShareColumnCounts(cm)
	if otherM.pis.Load() != nil || &twinM.ColumnCounts(0)[0] != &pi[0] {
		t.Error("ShareColumnCounts must adopt π exactly when the hashes match")
	}
	twinS := must(NewCountSketch(cfg, rand.New(rand.NewSource(6))))
	otherS := must(NewCountSketch(cfg, rand.New(rand.NewSource(7))))
	psi := cs.SignedColumnSums(0)
	otherS.ShareSignedColumnSums(cs)
	twinS.ShareSignedColumnSums(cs)
	if otherS.psis.Load() != nil || &twinS.SignedColumnSums(0)[0] != &psi[0] {
		t.Error("ShareSignedColumnSums must adopt ψ exactly when the hashes match")
	}

	for name, check := range map[string]func(){
		"countmedian": func() { cm.CheckIndexBatch(idx, make([]float64, 1)) },
		"countsketch": func() { cs.CheckIndexBatch([]int{cfg.N}, make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CheckIndexBatch accepted a bad batch", name)
				}
			}()
			check()
		}()
	}
}
