package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapesAndAccess(t *testing.T) {
	m := New(3, 4)
	if m.R != 3 || m.C != 4 || len(m.V) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2)=%v, want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row alias broken: %v", got)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong length")
		}
	}()
	FromSlice(2, 3, []float64{1, 2})
}

func TestAddScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{4, 3, 2, 1})
	a.Add(b)
	want := []float64{5, 5, 5, 5}
	for i, v := range a.V {
		if v != want[i] {
			t.Fatalf("add: got %v", a.V)
		}
	}
	a.Scale(2)
	if a.At(1, 1) != 10 {
		t.Fatalf("scale: got %v", a.V)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.V {
		if v != want[i] {
			t.Fatalf("matmul: got %v, want %v", c.V, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulATMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(1)
	a := New(4, 3)
	b := New(4, 5)
	rng.FillNormal(a, 1)
	rng.FillNormal(b, 1)
	got := New(3, 5)
	MatMulATInto(got, a, b)
	want := MatMul(a.Transpose(), b)
	for i := range got.V {
		if math.Abs(got.V[i]-want.V[i]) > 1e-12 {
			t.Fatalf("AT mismatch at %d: %v vs %v", i, got.V[i], want.V[i])
		}
	}
}

func TestMatMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(2)
	a := New(4, 3)
	b := New(5, 3)
	rng.FillNormal(a, 1)
	rng.FillNormal(b, 1)
	got := New(4, 5)
	MatMulBTInto(got, a, b)
	want := MatMul(a, b.Transpose())
	for i := range got.V {
		if math.Abs(got.V[i]-want.V[i]) > 1e-12 {
			t.Fatalf("BT mismatch at %d", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		m := New(r, c)
		rng.FillNormal(m, 1)
		tt := m.Transpose().Transpose()
		if tt.R != m.R || tt.C != m.C {
			return false
		}
		for i := range m.V {
			if m.V[i] != tt.V[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDotAndL2(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("dot=%v", Dot(a, b))
	}
	if got := L2(a, b); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Fatalf("l2=%v", got)
	}
}

func TestL2PropertyNonNegativeSymmetric(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(10)
		a := rng.NormVec(n)
		b := rng.NormVec(n)
		d1 := L2(a, b)
		d2 := L2(b, a)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-12 && L2(a, a) == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeanVariance(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("mean=%v", Mean(v))
	}
	if Variance(v) != 4 {
		t.Fatalf("var=%v", Variance(v))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty slice stats should be 0")
	}
}

func TestCentroid(t *testing.T) {
	vs := [][]float64{{0, 0}, {2, 4}}
	c := Centroid(vs)
	if c[0] != 1 || c[1] != 2 {
		t.Fatalf("centroid=%v", c)
	}
	if Centroid(nil) != nil {
		t.Fatal("empty centroid should be nil")
	}
}

func TestAXPY(t *testing.T) {
	dst := []float64{1, 1}
	AXPY(2, []float64{3, 4}, dst)
	if dst[0] != 7 || dst[1] != 9 {
		t.Fatalf("axpy=%v", dst)
	}
}
