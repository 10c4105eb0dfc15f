package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 5)
	m.Set(1, 1, -2)
	if m.At(0, 2) != 5 || m.At(1, 1) != -2 || m.At(1, 0) != 0 {
		t.Error("At/Set broken")
	}
	col := m.Col(1, nil)
	if col[0] != 0 || col[1] != -2 {
		t.Errorf("Col = %v", col)
	}
	out := m.MulVec([]float64{1, 1, 1})
	if out[0] != 6 || out[1] != -2 {
		t.Errorf("MulVec = %v", out)
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).MulVec([]float64{1})
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2 wrong")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square well-conditioned system: solution must be exact.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2t + 1 through noisy-free samples: residual 0.
	a := NewMatrix(5, 2)
	b := make([]float64, 5)
	for i := 0; i < 5; i++ {
		a.Set(i, 0, float64(i))
		a.Set(i, 1, 1)
		b[i] = 2*float64(i) + 1
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-1) > 1e-10 {
		t.Errorf("fit = %v, want [2 1]", x)
	}
}

func TestLeastSquaresMatchesNormalEquations(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, n := 12+r.Intn(10), 3+r.Intn(4)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Residual must be orthogonal to the column space: Aᵀ(Ax−b)=0.
		ax := a.MulVec(x)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += a.At(i, j) * (ax[i] - b[i])
			}
			if math.Abs(s) > 1e-8 {
				t.Fatalf("trial %d: normal equation residual %e at column %d", trial, s, j)
			}
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := LeastSquares(a, []float64{1, 2}); err == nil {
		t.Error("underdetermined system should fail")
	}
	sq := NewMatrix(3, 2)
	if _, err := LeastSquares(sq, []float64{1}); err == nil {
		t.Error("rhs length mismatch should fail")
	}
	// Rank-deficient: zero column.
	z := NewMatrix(3, 2)
	z.Set(0, 0, 1)
	z.Set(1, 0, 2)
	z.Set(2, 0, 3)
	if _, err := LeastSquares(z, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient matrix should fail")
	}
}

func TestLeastSquaresDoesNotMutate(t *testing.T) {
	a := NewMatrix(3, 2)
	for i := range a.Data {
		a.Data[i] = float64(i + 1)
	}
	orig := append([]float64(nil), a.Data...)
	b := []float64{1, 2, 3}
	if _, err := LeastSquares(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if a.Data[i] != orig[i] {
			t.Fatal("LeastSquares mutated A")
		}
	}
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatal("LeastSquares mutated b")
	}
}

// Norm2 returns ‖a‖₂.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }
