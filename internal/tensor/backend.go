package tensor

import "fmt"

// Backend is the compute seam: one kernel set per storage dtype. The
// package-level MatMul* entry points validate shapes and dtypes once, then
// dispatch on the destination's dtype, so every layer above this package is
// precision-agnostic — it computes in whatever dtype its matrices carry.
//
// Contract: within one backend, every method is bit-deterministic across
// worker counts — each output element is accumulated in a fixed k-ascending
// order independent of how Parallel partitions rows (see DESIGN.md §8).
// Across backends only approximate agreement holds (float32 rounds).
type Backend interface {
	// Name identifies the backend ("float64", "float32").
	Name() string
	// DType is the element type this backend's kernels operate on.
	DType() DType

	// MatMulBias computes dst = act(a×b (+ bias broadcast over rows when
	// bias is non-nil)). Shapes are pre-validated by the caller.
	MatMulBias(dst, a, b, bias *Mat, act Act)
	// MatMulAT computes dst = aᵀ×b.
	MatMulAT(dst, a, b *Mat)
	// MatMulBT computes dst = a×bᵀ.
	MatMulBT(dst, a, b *Mat)

	// Axpy performs dst += s*src.
	Axpy(s float64, src, dst *Mat)
	// Dot returns the inner product of two equal-shape matrices, widened
	// to float64.
	Dot(a, b *Mat) float64
	// Sum, MaxAbs and Norm2 reduce in float64 regardless of storage dtype.
	Sum(m *Mat) float64
	MaxAbs(m *Mat) float64
	Norm2(m *Mat) float64

	// Elementwise in-place operations.
	Scale(m *Mat, s float64)
	Fill(m *Mat, v float64)
	Add(dst, o *Mat)
	Sub(dst, o *Mat)
	AddScaled(dst *Mat, s float64, o *Mat)
	Hadamard(dst, o *Mat)
}

var backendReg [numDTypes]Backend

// Register installs b as the backend serving its dtype, replacing any
// previous registration. Both built-in backends register at init.
func Register(b Backend) { backendReg[b.DType()] = b }

// For returns the backend registered for dt.
func For(dt DType) Backend {
	b := backendReg[dt]
	if b == nil {
		panic(fmt.Sprintf("tensor: no backend registered for %v", dt))
	}
	return b
}

// Backends returns every registered backend, float64 first.
func Backends() []Backend {
	out := make([]Backend, 0, numDTypes)
	for _, b := range backendReg {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

func init() {
	Register(backend64{})
	Register(backend32{})
}

// mustSameDType panics unless every operand carries dtype dt.
func mustSameDType(dt DType, ms ...*Mat) {
	for _, m := range ms {
		if m != nil && m.DType() != dt {
			panic(fmt.Sprintf("tensor: dtype mismatch: %v operand in %v kernel", m.DType(), dt))
		}
	}
}

// backend64 is the float64 reference backend. It is the precision ground
// truth, and the default every server computes in.
type backend64 struct{}

func (backend64) Name() string { return "float64" }
func (backend64) DType() DType { return F64 }

func (backend64) MatMulBias(dst, a, b, bias *Mat, act Act) {
	var bv []float64
	if bias != nil {
		bv = bias.V
	}
	mmAxpy(rows64, dst.V, a.V, b.V, bv, a.R, a.C, b.C, a.C, 1, act)
}
func (backend64) MatMulAT(dst, a, b *Mat) {
	mmAxpy(rows64, dst.V, a.V, b.V, nil, a.C, a.R, b.C, 1, a.C, Act{})
}
func (backend64) MatMulBT(dst, a, b *Mat) { mmBT(dst.V, a.V, b.V, a.R, a.C, b.R) }

func (backend64) Axpy(s float64, src, dst *Mat) { addScaledSlices(dst.V, s, src.V) }
func (backend64) Dot(a, b *Mat) float64         { return Dot(a.V, b.V) }
func (backend64) Sum(m *Mat) float64            { return m.Sum() }
func (backend64) MaxAbs(m *Mat) float64         { return m.MaxAbs() }
func (backend64) Norm2(m *Mat) float64          { return m.Norm2() }

func (backend64) Scale(m *Mat, s float64) { m.Scale(s) }
func (backend64) Fill(m *Mat, v float64)  { m.Fill(v) }
func (backend64) Add(dst, o *Mat)         { dst.Add(o) }
func (backend64) Sub(dst, o *Mat)         { dst.Sub(o) }
func (backend64) AddScaled(dst *Mat, s float64, o *Mat) {
	dst.AddScaled(s, o)
}
func (backend64) Hadamard(dst, o *Mat) { dst.Hadamard(o) }

// backend32 serves packed float32 storage: the same kernels at half the
// memory traffic and twice the lanes per vector. Reductions still widen to
// float64 so downstream drift statistics keep their dynamic range.
type backend32 struct{}

func (backend32) Name() string { return "float32" }
func (backend32) DType() DType { return F32 }

func (backend32) MatMulBias(dst, a, b, bias *Mat, act Act) {
	var bv []float32
	if bias != nil {
		bv = bias.V32
	}
	mmAxpy(rows32, dst.V32, a.V32, b.V32, bv, a.R, a.C, b.C, a.C, 1, act)
}
func (backend32) MatMulAT(dst, a, b *Mat) {
	mmAxpy(rows32, dst.V32, a.V32, b.V32, nil, a.C, a.R, b.C, 1, a.C, Act{})
}
func (backend32) MatMulBT(dst, a, b *Mat) { mmBT(dst.V32, a.V32, b.V32, a.R, a.C, b.R) }

func (backend32) Axpy(s float64, src, dst *Mat) {
	addScaledSlices(dst.V32, float32(s), src.V32)
}

func (backend32) Dot(a, b *Mat) float64 {
	var s float64
	for i, v := range a.V32 {
		s += float64(v) * float64(b.V32[i])
	}
	return s
}
func (backend32) Sum(m *Mat) float64    { return m.Sum() }
func (backend32) MaxAbs(m *Mat) float64 { return m.MaxAbs() }
func (backend32) Norm2(m *Mat) float64  { return m.Norm2() }

func (backend32) Scale(m *Mat, s float64) { m.Scale(s) }
func (backend32) Fill(m *Mat, v float64)  { m.Fill(v) }
func (backend32) Add(dst, o *Mat)         { dst.Add(o) }
func (backend32) Sub(dst, o *Mat)         { dst.Sub(o) }
func (backend32) AddScaled(dst *Mat, s float64, o *Mat) {
	dst.AddScaled(s, o)
}
func (backend32) Hadamard(dst, o *Mat) { dst.Hadamard(o) }
