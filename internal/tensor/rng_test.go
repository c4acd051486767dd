package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSeedsDiverge(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds collided %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) did not cover all values: %v", seen)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(99)
	n := 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFillUniformBounds(t *testing.T) {
	r := NewRNG(3)
	m := New(10, 10)
	r.FillUniform(m, -2, 3)
	for _, v := range m.V {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform fill out of bounds: %v", v)
		}
	}
}

func TestRangeBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 6)
		if v < 5 || v >= 6 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

// splitmixGolden is the increment Uint64 adds to the state before mixing.
const splitmixGolden = 0x9e3779b97f4a7c15

// stateBefore returns the state whose next Uint64 is out, by running
// splitmix64's finalizer backwards: each xor-shift and each odd multiply
// is invertible mod 2^64.
func stateBefore(out uint64) uint64 {
	unshift := func(v uint64, k uint) uint64 {
		x := v
		for i := uint(0); i < 64; i += k {
			x = v ^ x>>k
		}
		return x
	}
	inverse := func(m uint64) uint64 { // Newton's iteration, m odd
		x := m
		for i := 0; i < 6; i++ {
			x *= 2 - m*x
		}
		return x
	}
	z := unshift(out, 31)
	z = unshift(z*inverse(0x94d049bb133111eb), 27)
	z = unshift(z*inverse(0xbf58476d1ce4e5b9), 30)
	return z - splitmixGolden
}

// TestNormRetriesZeroDraw: a u1 of exactly 0 (the top 53 bits of a draw all
// zero) is drawn again, as is every such u1 — a case no seed in the
// repository reaches — and SkipNorms lands where Norm does.
func TestNormRetriesZeroDraw(t *testing.T) {
	for _, out := range []uint64{0, 1, 1<<11 - 1, 1 << 11, 0xdeadbeef} {
		s := stateBefore(out)
		var r RNG
		r.SetState(s)
		if got := r.Uint64(); got != out {
			t.Fatalf("stateBefore(%#x): next draw is %#x", out, got)
		}
		r.SetState(s)
		got := r.Norm()
		// The reference takes u1 from the draw after a zero one.
		var ref RNG
		ref.SetState(s)
		if out>>11 == 0 {
			ref.SetState(s + splitmixGolden)
		}
		if want := ref.Norm(); math.Float64bits(got) != math.Float64bits(want) || r.State() != ref.State() {
			t.Fatalf("draw %#x: Norm %v state %#x, want %v state %#x", out, got, r.State(), want, ref.State())
		}
		var skip RNG
		skip.SetState(s)
		skip.SkipNorms(1)
		if skip.State() != r.State() {
			t.Fatalf("draw %#x: SkipNorms(1) state %#x, Norm's %#x", out, skip.State(), r.State())
		}
	}
}

// TestSkipNormsMatchesNorm: SkipNorms(n) leaves the generator where n Norm
// calls do, from random states, a zero draw among them.
func TestSkipNormsMatchesNorm(t *testing.T) {
	seeds := NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		s := seeds.Uint64()
		if trial%50 == 0 {
			s = stateBefore(0) - splitmixGolden*uint64(trial%7) // a zero draw a few draws in
		}
		n := seeds.Intn(5000)
		var a, b RNG
		a.SetState(s)
		b.SetState(s)
		for i := 0; i < n; i++ {
			a.Norm()
		}
		b.SkipNorms(n)
		if a.State() != b.State() {
			t.Fatalf("state %#x, n=%d: SkipNorms at %#x, Norm at %#x", s, n, b.State(), a.State())
		}
	}
}

// TestCosTurnMatchesCos: cosTurn gives math.Cos's bits on Norm's angles, at
// zero and one ulp either side of every octant edge kπ/4.
func TestCosTurnMatchesCos(t *testing.T) {
	check := func(x float64) {
		if got, want := cosTurn(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cosTurn(%v) = %v (%#x), math.Cos %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check(0)
	for k := 0; k <= 8; k++ {
		edge := float64(k) * (math.Pi / 4)
		for _, x := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 8)} {
			if x >= 0 {
				check(x)
			}
		}
	}
	r := NewRNG(17)
	for i := 0; i < 10_000_000; i++ {
		check(2 * math.Pi * r.Float64())
	}
}
