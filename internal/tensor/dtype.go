package tensor

import "fmt"

// DType identifies the element type a Mat stores and, through the backend
// registry, which kernel set operates on it. The zero value is F64, so every
// pre-existing construction path keeps its float64 semantics untouched.
type DType uint8

const (
	// F64 is the float64 reference precision; all master weights and every
	// accumulation-sensitive statistic stay in it.
	F64 DType = iota
	// F32 is the packed float32 compute precision: half the memory traffic
	// per matmul/conv and twice the lanes per vector of the same kernels.
	F32

	numDTypes = 2
)

// String names the dtype ("float64" / "float32").
func (d DType) String() string {
	switch d {
	case F64:
		return "float64"
	case F32:
		return "float32"
	}
	return fmt.Sprintf("DType(%d)", uint8(d))
}

// Size returns the element width in bytes.
func (d DType) Size() int {
	if d == F32 {
		return 4
	}
	return 8
}

// DType reports which element type m stores. A Mat holds exactly one of V
// (float64) or V32 (float32); the nil slice decides.
func (m *Mat) DType() DType {
	if m.V32 != nil {
		return F32
	}
	return F64
}

// NewOf returns an all-zero r×c matrix backed by dt storage.
func NewOf(dt DType, r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", r, c))
	}
	if dt == F32 {
		return &Mat{R: r, C: c, V32: make([]float32, r*c)}
	}
	return New(r, c)
}

// FromSlice32 wraps v (not copied) as an r-by-c float32 matrix.
func FromSlice32(r, c int, v []float32) *Mat {
	if len(v) != r*c {
		panic(fmt.Sprintf("tensor: slice of len %d cannot form %dx%d", len(v), r, c))
	}
	return &Mat{R: r, C: c, V32: v}
}

// Len returns the element count regardless of dtype.
func (m *Mat) Len() int {
	if m.V32 != nil {
		return len(m.V32)
	}
	return len(m.V)
}

// Row32 returns row i of a float32 matrix as a slice aliasing its storage.
func (m *Mat) Row32(i int) []float32 { return m.V32[i*m.C : (i+1)*m.C] }

// Row64 returns row i widened to float64. For a float64 matrix it aliases
// the storage (zero copy); for float32 it converts into buf, growing it as
// needed, so callers can reuse one scratch slice across a whole batch.
func (m *Mat) Row64(i int, buf []float64) []float64 {
	if m.V32 == nil {
		return m.Row(i)
	}
	row := m.Row32(i)
	if cap(buf) < len(row) {
		buf = make([]float64, len(row))
	}
	buf = buf[:len(row)]
	for j, v := range row {
		buf[j] = float64(v)
	}
	return buf
}

// SetRow copies a float64 row into row i, narrowing if m is float32.
func (m *Mat) SetRow(i int, src []float64) {
	if len(src) != m.C {
		panic("tensor: SetRow length mismatch")
	}
	if m.V32 == nil {
		copy(m.Row(i), src)
		return
	}
	row := m.Row32(i)
	for j, v := range src {
		row[j] = float32(v)
	}
}

// ConvertInto copies src into dst element-wise, converting between dtypes
// as needed. Shapes must match; same-dtype copies degrade to copy().
func ConvertInto(dst, src *Mat) {
	dst.mustSameShape(src)
	switch {
	case dst.V32 == nil && src.V32 == nil:
		copy(dst.V, src.V)
	case dst.V32 != nil && src.V32 != nil:
		copy(dst.V32, src.V32)
	case dst.V32 != nil:
		for i, v := range src.V {
			dst.V32[i] = float32(v)
		}
	default:
		for i, v := range src.V32 {
			dst.V[i] = float64(v)
		}
	}
}

// ToDType returns m itself when it already stores dt, or a freshly
// allocated converted copy otherwise.
func (m *Mat) ToDType(dt DType) *Mat {
	if m.DType() == dt {
		return m
	}
	out := NewOf(dt, m.R, m.C)
	ConvertInto(out, m)
	return out
}

// at/set are the dtype-agnostic element accessors behind At/Set.
func (m *Mat) at(idx int) float64 {
	if m.V32 != nil {
		return float64(m.V32[idx])
	}
	return m.V[idx]
}

func (m *Mat) set(idx int, v float64) {
	if m.V32 != nil {
		m.V32[idx] = float32(v)
		return
	}
	m.V[idx] = v
}

// number covers the two element types so shared element-wise helpers can be
// written once and instantiated per dtype combination.
type number interface{ ~float32 | ~float64 }

func addSlices[D, S number](dst []D, src []S) {
	for i, v := range src {
		dst[i] += D(v)
	}
}

func subSlices[D, S number](dst []D, src []S) {
	for i, v := range src {
		dst[i] -= D(v)
	}
}

func addScaledSlices[D, S number](dst []D, s D, src []S) {
	for i, v := range src {
		dst[i] += s * D(v)
	}
}

func mulSlices[D, S number](dst []D, src []S) {
	for i, v := range src {
		dst[i] *= D(v)
	}
}
