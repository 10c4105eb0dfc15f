package sketch

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hashing"
)

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

// The On constructors the bias-aware recoveries build on must answer
// exactly like the drawing constructors when handed the families those
// draw from the same seed, must refuse families that do not fit the
// shape, and the index checks must still reject bad input.
func TestColumnAccessorsAgree(t *testing.T) {
	cfg := Config{N: 400, Rows: 32, Depth: 4}
	r := rand.New(rand.NewSource(6))
	hash := must(hashing.NewFamily(r, cfg.Depth, cfg.Rows))
	signs := hashing.NewSignFamily(r, cfg.Depth)

	cm := must(NewCountMedian(cfg, rand.New(rand.NewSource(6))))
	cmOn := must(NewCountMedianOn(cfg, hash))
	cs := must(NewCountSketch(cfg, rand.New(rand.NewSource(6))))
	csOn := must(NewCountSketchOn(cfg, hash, signs))
	ur := rand.New(rand.NewSource(7))
	var mass float64
	for u := 0; u < 2000; u++ {
		i, d := ur.Intn(cfg.N), float64(ur.Intn(9)-3)
		mass += d
		for _, s := range []Sketch{cm, cmOn, cs, csOn} {
			s.Update(i, d)
		}
	}
	for i := 0; i < cfg.N; i++ {
		if a, b := cm.Query(i), cmOn.Query(i); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("countmedian query %d: drawn %v, On %v", i, a, b)
		}
		if a, b := cs.Query(i), csOn.Query(i); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("countsketch query %d: drawn %v, On %v", i, a, b)
		}
	}
	for tr := 0; tr < cfg.Depth; tr++ {
		var sum float64
		for _, v := range cmOn.Rows()[tr] {
			sum += v
		}
		if sum != mass {
			t.Fatalf("countmedian row %d holds mass %v, want %v", tr, sum, mass)
		}
	}

	wide := must(hashing.NewFamily(r, cfg.Depth, cfg.Rows+1))
	for name, err := range map[string]error{
		"countmedian short hash": second(NewCountMedianOn(cfg, hash[:cfg.Depth-1])),
		"countmedian wide hash":  second(NewCountMedianOn(cfg, wide)),
		"countmedian bad config": second(NewCountMedianOn(Config{N: 0, Rows: 32, Depth: 4}, hash)),
		"countsketch short hash": second(NewCountSketchOn(cfg, hash[:cfg.Depth-1], signs)),
		"countsketch wide hash":  second(NewCountSketchOn(cfg, wide, signs)),
		"countsketch short sign": second(NewCountSketchOn(cfg, hash, signs[:cfg.Depth-1])),
	} {
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: got %v, want ErrConfig", name, err)
		}
	}

	for name, check := range map[string]func(){
		"countmedian batch":    func() { cm.CheckIndexBatch([]int{0, 7}, make([]float64, 1)) },
		"countsketch batch":    func() { cs.CheckIndexBatch([]int{cfg.N}, make([]float64, 1)) },
		"countmedian negative": func() { cm.CheckIndex(-1) },
		"countsketch past end": func() { cs.CheckIndex(cfg.N) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: index check accepted bad input", name)
				}
			}()
			check()
		}()
	}
}

// second returns the error of a constructor's (value, error) pair.
func second[T any](_ T, err error) error { return err }
