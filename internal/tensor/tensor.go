// Package tensor provides the dense matrix and vector primitives that the
// neural-network substrate and the drift-detection algorithms are built on.
// It is deliberately small: row-major matrices, a handful of BLAS-like
// kernels behind a per-dtype Backend seam (one tiled loop nest per product,
// instantiated for float64 and float32, with AVX2 row updates on amd64), and
// deterministic random initialisation helpers.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense, row-major matrix with R rows and C columns. A Mat with
// R==1 doubles as a vector. Exactly one of V (float64) or V32 (float32) is
// non-nil; DType reports which. The zero value is an empty float64 matrix.
type Mat struct {
	R, C int
	V    []float64
	V32  []float32
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

// At returns the element at row i, column j, widened to float64.
func (m *Mat) At(i, j int) float64 { return m.at(i*m.C + j) }

// Set assigns the element at row i, column j, narrowing if m is float32.
func (m *Mat) Set(i, j int, v float64) { m.set(i*m.C+j, v) }

// Row returns row i of a float64 matrix as a slice aliasing the storage.
// See Row32 / Row64 for float32 matrices.
func (m *Mat) Row(i int) []float64 { return m.V[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy of m, preserving its dtype.
func (m *Mat) Clone() *Mat {
	out := NewOf(m.DType(), m.R, m.C)
	copy(out.V, m.V)
	copy(out.V32, m.V32)
	return out
}

// CopyFrom copies src's contents into m, converting if the dtypes differ.
// Shapes must match.
func (m *Mat) CopyFrom(src *Mat) {
	ConvertInto(m, src)
}

// Zero sets every element to 0.
func (m *Mat) Zero() {
	for i := range m.V {
		m.V[i] = 0
	}
	for i := range m.V32 {
		m.V32[i] = 0
	}
}

// Fill sets every element to v.
func (m *Mat) Fill(v float64) {
	for i := range m.V {
		m.V[i] = v
	}
	v32 := float32(v)
	for i := range m.V32 {
		m.V32[i] = v32
	}
}

func (m *Mat) mustSameShape(o *Mat) {
	if m.R != o.R || m.C != o.C {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.R, m.C, o.R, o.C))
	}
}

// Add adds o element-wise into m (m += o). Mixed dtypes are supported —
// the mixed-precision training path accumulates float32 gradients into
// float64 master parameters through exactly this entry point.
func (m *Mat) Add(o *Mat) {
	m.mustSameShape(o)
	switch {
	case m.V32 == nil && o.V32 == nil:
		for i, v := range o.V {
			m.V[i] += v
		}
	case m.V32 != nil && o.V32 != nil:
		addSlices(m.V32, o.V32)
	case m.V32 == nil:
		addSlices(m.V, o.V32)
	default:
		addSlices(m.V32, o.V)
	}
}

// Sub subtracts o element-wise from m (m -= o). Mixed dtypes convert
// element-wise like Add.
func (m *Mat) Sub(o *Mat) {
	m.mustSameShape(o)
	switch {
	case m.V32 == nil && o.V32 == nil:
		for i, v := range o.V {
			m.V[i] -= v
		}
	case m.V32 != nil && o.V32 != nil:
		subSlices(m.V32, o.V32)
	case m.V32 == nil:
		subSlices(m.V, o.V32)
	default:
		subSlices(m.V32, o.V)
	}
}

// Scale multiplies every element of m by s.
func (m *Mat) Scale(s float64) {
	for i := range m.V {
		m.V[i] *= s
	}
	if m.V32 != nil {
		s32 := float32(s)
		for i := range m.V32 {
			m.V32[i] *= s32
		}
	}
}

// AddScaled performs m += s*o. Mixed dtypes convert element-wise like Add;
// when m is float32 the scale itself rounds to float32 first.
func (m *Mat) AddScaled(s float64, o *Mat) {
	m.mustSameShape(o)
	switch {
	case m.V32 == nil && o.V32 == nil:
		for i, v := range o.V {
			m.V[i] += s * v
		}
	case m.V32 != nil && o.V32 != nil:
		addScaledSlices(m.V32, float32(s), o.V32)
	case m.V32 == nil:
		addScaledSlices(m.V, s, o.V32)
	default:
		addScaledSlices(m.V32, float32(s), o.V)
	}
}

// Hadamard multiplies m element-wise by o (m ⊙= o).
func (m *Mat) Hadamard(o *Mat) {
	m.mustSameShape(o)
	switch {
	case m.V32 == nil && o.V32 == nil:
		for i, v := range o.V {
			m.V[i] *= v
		}
	case m.V32 != nil && o.V32 != nil:
		mulSlices(m.V32, o.V32)
	case m.V32 == nil:
		mulSlices(m.V, o.V32)
	default:
		mulSlices(m.V32, o.V)
	}
}

// MatMul returns a new matrix holding m×o, in the operands' dtype.
func MatMul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewOf(a.DType(), a.R, b.C)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a×b, reusing dst's storage. All operands must
// share a dtype — the matching backend's kernel runs. dst must not alias a
// or b.
func MatMulInto(dst, a, b *Mat) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic("tensor: matmul-into shape mismatch")
	}
	dt := dst.DType()
	mustSameDType(dt, a, b)
	For(dt).MatMulBias(dst, a, b, nil, Act{})
}

// MatMulBiasInto computes dst = a×b + bias, with the row-vector bias
// broadcast over dst's rows and folded into the accumulation so the result
// needs no second pass. bias must hold dst.C elements in the operands'
// dtype. dst must not alias a or b.
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
	dt := dst.DType()
	mustSameDType(dt, a, b, bias)
	For(dt).MatMulBias(dst, a, b, bias, act)
}

// MatMulATInto computes dst = aᵀ×b. All operands must share a dtype. dst
// must not alias a or b.
func MatMulATInto(dst, a, b *Mat) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic("tensor: matmul-aT shape mismatch")
	}
	dt := dst.DType()
	mustSameDType(dt, a, b)
	For(dt).MatMulAT(dst, a, b)
}

// MatMulBTInto computes dst = a×bᵀ. All operands must share a dtype. dst
// must not alias a or b.
func MatMulBTInto(dst, a, b *Mat) {
	if a.C != b.C || dst.R != a.R || dst.C != b.R {
		panic("tensor: matmul-bT shape mismatch")
	}
	dt := dst.DType()
	mustSameDType(dt, a, b)
	For(dt).MatMulBT(dst, a, b)
}

// Transpose returns a new matrix holding mᵀ, preserving the dtype.
func (m *Mat) Transpose() *Mat {
	out := NewOf(m.DType(), m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Sum returns the sum of all elements, accumulated in float64 regardless
// of storage dtype.
func (m *Mat) Sum() float64 {
	var s float64
	for _, v := range m.V {
		s += v
	}
	for _, v := range m.V32 {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty matrices).
func (m *Mat) Mean() float64 {
	if m.Len() == 0 {
		return 0
	}
	return m.Sum() / float64(m.Len())
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Mat) MaxAbs() float64 {
	var s float64
	for _, v := range m.V {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	for _, v := range m.V32 {
		if a := math.Abs(float64(v)); a > s {
			s = a
		}
	}
	return s
}

// Norm2 returns the Euclidean norm of all elements, accumulated in float64.
func (m *Mat) Norm2() float64 {
	var s float64
	for _, v := range m.V {
		s += v * v
	}
	for _, v := range m.V32 {
		f := float64(v)
		s += f * f
	}
	return math.Sqrt(s)
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
