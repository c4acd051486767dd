// Package tensor provides the dense matrix and vector primitives that the
// neural-network substrate and the drift-detection algorithms are built on.
// It is deliberately small: row-major float64 matrices, a handful of
// BLAS-like kernels (one tiled loop nest per product, with AVX2 and AVX-512F
// paths on amd64 that reproduce the pure-Go sums bit for bit), and
// deterministic random initialisation helpers.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense, row-major float64 matrix with R rows and C columns. A Mat
// with R==1 doubles as a vector. The zero value is an empty matrix.
type Mat struct {
	R, C int
	V    []float64
}

// New returns an all-zero matrix with r rows and c columns.
func New(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", r, c))
	}
	return &Mat{R: r, C: c, V: make([]float64, r*c)}
}

// FromSlice wraps v (not copied) as an r-by-c matrix.
func FromSlice(r, c int, v []float64) *Mat {
	if len(v) != r*c {
		panic(fmt.Sprintf("tensor: slice of len %d cannot form %dx%d", len(v), r, c))
	}
	return &Mat{R: r, C: c, V: v}
}

// FromVec wraps v (not copied) as a 1-by-len(v) row vector.
func FromVec(v []float64) *Mat { return &Mat{R: 1, C: len(v), V: v} }

// Len returns the element count.
func (m *Mat) Len() int { return len(m.V) }

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 { return m.V[i*m.C+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) { m.V[i*m.C+j] = v }

// Row returns row i as a slice aliasing the storage.
func (m *Mat) Row(i int) []float64 { return m.V[i*m.C : (i+1)*m.C] }

// SetRow copies src into row i.
func (m *Mat) SetRow(i int, src []float64) {
	if len(src) != m.C {
		panic("tensor: SetRow length mismatch")
	}
	copy(m.Row(i), src)
}

// Zero sets every element to 0.
func (m *Mat) Zero() { clear(m.V) }

// Fill sets every element to v.
func (m *Mat) Fill(v float64) {
	for i := range m.V {
		m.V[i] = v
	}
}

func (m *Mat) mustSameShape(o *Mat) {
	if m.R != o.R || m.C != o.C {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.R, m.C, o.R, o.C))
	}
}

// Add adds o element-wise into m (m += o).
func (m *Mat) Add(o *Mat) {
	m.mustSameShape(o)
	for i, v := range o.V {
		m.V[i] += v
	}
}

// Scale multiplies every element of m by s.
func (m *Mat) Scale(s float64) {
	for i := range m.V {
		m.V[i] *= s
	}
}

// MatMul returns a new matrix holding m×o.
func MatMul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.R, a.C, b.R, b.C))
	}
	out := New(a.R, b.C)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a×b, reusing dst's storage. dst must not alias
// a or b.
func MatMulInto(dst, a, b *Mat) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic("tensor: matmul-into shape mismatch")
	}
	mmAxpy(dst.V, a.V, b.V, nil, a.R, a.C, b.C, a.C, 1, Act{})
}

// MatMulBiasInto computes dst = a×b + bias, with the row-vector bias
// broadcast over dst's rows and folded into the accumulation so the result
// needs no second pass. bias must hold dst.C elements. dst must not alias a
// or b.
func MatMulBiasInto(dst, a, b, bias *Mat) { MatMulBiasActInto(dst, a, b, bias, Act{}) }

// MatMulBiasActInto computes dst = act(a×b + bias): MatMulBiasInto with the
// activation applied to each element as its finished sum is stored.
func MatMulBiasActInto(dst, a, b, bias *Mat, act Act) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic("tensor: matmul-into shape mismatch")
	}
	if bias.Len() != dst.C {
		panic("tensor: matmul bias length mismatch")
	}
	mmAxpy(dst.V, a.V, b.V, bias.V, a.R, a.C, b.C, a.C, 1, act)
}

// MatMulATInto computes dst = aᵀ×b. dst must not alias a or b.
func MatMulATInto(dst, a, b *Mat) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic("tensor: matmul-aT shape mismatch")
	}
	mmAxpy(dst.V, a.V, b.V, nil, a.C, a.R, b.C, 1, a.C, Act{})
}

// MatMulBTInto computes dst = a×bᵀ. dst must not alias a or b.
func MatMulBTInto(dst, a, b *Mat) {
	if a.C != b.C || dst.R != a.R || dst.C != b.R {
		panic("tensor: matmul-bT shape mismatch")
	}
	mmBT(dst.V, a.V, b.V, a.R, a.C, b.R)
}

// Transpose returns a new matrix holding mᵀ.
func (m *Mat) Transpose() *Mat {
	out := New(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// L2 returns the Euclidean distance between two equal-length vectors.
func L2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: l2 length mismatch")
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// AXPY performs dst += s*src on raw slices.
func AXPY(s float64, src, dst []float64) {
	if len(src) != len(dst) {
		panic("tensor: axpy length mismatch")
	}
	for i, v := range src {
		dst[i] += s * v
	}
}

// Mean returns the mean of a slice (0 when empty).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of a slice (0 when len < 1).
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Centroid returns the element-wise mean of a set of equal-length vectors.
func Centroid(vs [][]float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	out := make([]float64, len(vs[0]))
	for _, v := range vs {
		for i, x := range v {
			out[i] += x
		}
	}
	inv := 1 / float64(len(vs))
	for i := range out {
		out[i] *= inv
	}
	return out
}
