// Package linalg provides the small dense linear algebra kernel needed
// by the BOMP baseline (§2 of the paper, Yan et al. [31]): matrix
// storage, products, and Householder-QR least squares. Stdlib only.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Col copies column j into dst (allocating when dst is nil).
func (m *Matrix) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.At(i, j)
	}
	return dst
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns ⟨a, b⟩.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot dimension mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// LeastSquares solves min_x ‖A·x − b‖₂ for a full-column-rank A with
// Rows ≥ Cols, via Householder QR. It does not modify A or b.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), m)
	}
	if m < n {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", m, n)
	}
	// Working copies.
	r := append([]float64(nil), a.Data...)
	qtb := append([]float64(nil), b...)

	at := func(i, j int) float64 { return r[i*n+j] }
	set := func(i, j int, v float64) { r[i*n+j] = v }

	for j := 0; j < n; j++ {
		// Householder vector for column j below the diagonal.
		var norm float64
		for i := j; i < m; i++ {
			norm += at(i, j) * at(i, j)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, fmt.Errorf("linalg: rank-deficient matrix at column %d", j)
		}
		alpha := -norm
		if at(j, j) < 0 {
			alpha = norm
		}
		v := make([]float64, m-j)
		v[0] = at(j, j) - alpha
		for i := j + 1; i < m; i++ {
			v[i-j] = at(i, j)
		}
		vnorm2 := Dot(v, v)
		if vnorm2 == 0 {
			continue
		}
		// Apply H = I − 2vvᵀ/‖v‖² to the remaining columns and to qtb.
		for c := j; c < n; c++ {
			var s float64
			for i := j; i < m; i++ {
				s += v[i-j] * at(i, c)
			}
			s = 2 * s / vnorm2
			for i := j; i < m; i++ {
				set(i, c, at(i, c)-s*v[i-j])
			}
		}
		var s float64
		for i := j; i < m; i++ {
			s += v[i-j] * qtb[i]
		}
		s = 2 * s / vnorm2
		for i := j; i < m; i++ {
			qtb[i] -= s * v[i-j]
		}
	}

	// Back substitution on the upper-triangular R.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= at(i, j) * x[j]
		}
		d := at(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, fmt.Errorf("linalg: singular R at row %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}
