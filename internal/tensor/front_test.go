package tensor

import (
	"math"
	"testing"

	"odin/internal/guardpage"
)

// The conformance of the two data-movement kernels in front of the
// products: the two-phase split every stride-2 convolution starts with and
// the 2×2 halving every projected frame goes through. Each runs at every
// level the host has and must give the bits of the plain loop written out
// here, on operands that end flush against a guard page, and must leave
// every element between its output rows as it found it.

// eachLevel runs fn once per kernel level the host supports, naming it.
func eachLevel(t *testing.T, fn func(level string)) {
	t.Helper()
	defer setISA(hostISA)
	for _, l := range []struct {
		name  string
		level isa
	}{{"avx512", isaAVX512}, {"avx2", isaAVX2}, {"go", isaGo}} {
		if setISA(l.level) {
			fn(l.name)
		}
	}
}

// sentinel marks the elements a kernel must not write.
var sentinel = math.Float64frombits(0x7ff4_dead_beef_0001) // a signalling NaN

// guardedRows returns a (rows−1)·stride + n element slice ending at a guard
// page, every element the sentinel, and the function that unmaps it.
func guardedRows(rows, stride, n int) ([]float64, func()) {
	if n == 0 {
		return nil, func() {}
	}
	s, free := guardpage.Alloc((rows-1)*stride + n)
	for i := range s {
		s[i] = sentinel
	}
	return s, free
}

// specialSource fills s with values a kernel must carry exactly: quiet and
// signalling NaNs with distinct payloads, ±Inf, ±0, denormals and ordinary
// numbers on both sides of [0, 1].
func specialSource(s []float64, rng *RNG) {
	for i := range s {
		switch rng.Uint64() % 8 {
		case 0:
			s[i] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(i+1)) // quiet NaN
		case 1:
			s[i] = math.Float64frombits(0xfff0_0000_0000_0000 | uint64(i+1)) // signalling, negative
		case 2:
			s[i] = math.Inf(1 - 2*int(rng.Uint64()%2))
		case 3:
			s[i] = math.Copysign(0, -1)
		case 4:
			s[i] = math.Float64frombits(uint64(i + 1)) // denormal
		default:
			s[i] = 4*rng.Float64() - 2
		}
	}
}

// TestSplitPhases pins the two-phase split to the plain loop: every run
// length from 1 to 33 even elements with as many or one fewer odd ones —
// through four vector steps and every tail — over 1 to 6 rows whose strides
// are wider than the runs, each operand ending at a guard page.
func TestSplitPhases(t *testing.T) {
	rng := NewRNG(41)
	eachLevel(t, func(level string) {
		for ne := 1; ne <= 33; ne++ {
			for no := ne - 1; no <= ne; no++ {
				for rows := 1; rows <= 6; rows++ {
					dn, sn := ne+3, ne+no+5
					src, freeSrc := guardpage.Alloc((rows-1)*sn + ne + no)
					specialSource(src, rng)
					even, freeEven := guardedRows(rows, dn, ne)
					odd, freeOdd := guardedRows(rows, dn, no)
					Kernels{}.SplitPhases(even, odd, src, ne, no, rows, dn, sn)
					for _, ph := range []struct {
						dst    []float64
						n, off int
					}{{even, ne, 0}, {odd, no, 1}} {
						for i, got := range ph.dst {
							want := sentinel // between the rows the planes stay untouched
							if r, c := i/dn, i%dn; c < ph.n {
								want = src[r*sn+2*c+ph.off]
							}
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s ne=%d no=%d rows=%d: phase %d element %d = %#x, want %#x",
									level, ne, no, rows, ph.off, i, math.Float64bits(got), math.Float64bits(want))
							}
						}
					}
					freeSrc()
					freeEven()
					freeOdd()
				}
			}
		}
	})
}

// TestSplitPhasesCounts: the odd phase holds as many elements as the even
// one or one fewer, or the call is a programming error.
func TestSplitPhasesCounts(t *testing.T) {
	for _, no := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a split of 3 even and %d odd elements was accepted", no)
				}
			}()
			Kernels{}.SplitPhases(make([]float64, 3), make([]float64, 5), make([]float64, 8), 3, no, 1, 3, 8)
		}()
	}
}

// halveRef is the halving of one 2×2 block written out: the sum from +0 in
// row order, a quarter of it, clamped to [0, 1].
func halveRef(a, b, c, d float64) float64 {
	var s float64
	s += a
	s += b
	s += c
	s += d
	s *= 0.25
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// halveBlock fills the 2×2 block whose top-left element is top[2i] (its
// lower row at bot[2i]) with one of the cases the halving must get right.
// A block holds at most one NaN, or else two infinities of opposite sign:
// the payload two NaNs leave depends on which is the first operand of the
// add, which Go does not pin for a commutative op.
func halveBlock(top, bot []float64, i int, rng *RNG) {
	at := [4]*float64{&top[2*i], &top[2*i+1], &bot[2*i], &bot[2*i+1]}
	for _, p := range at {
		*p = 1.5*rng.Float64() - 0.25 // around [0, 1], some beyond each end
	}
	k := rng.Uint64() % 4
	switch rng.Uint64() % 10 {
	case 0: // four −0: the +0 start makes the sum +0
		for _, p := range at {
			*p = math.Copysign(0, -1)
		}
	case 1: // −0 beside +0
		for j, p := range at {
			*p = math.Copysign(0, float64(j%2)-0.5)
		}
	case 2:
		*at[k] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(i+1)<<4 | k) // quiet NaN payload
	case 3:
		*at[k] = math.Float64frombits(0xfff0_0000_0000_0000 | uint64(i+1)<<4 | k) // signalling NaN payload
	case 4:
		*at[k] = math.Inf(1)
	case 5:
		*at[k] = math.Inf(-1)
	case 6:
		*at[k], *at[(k+1)%4] = math.Inf(1), math.Inf(-1)
	case 7: // a mean a hair either side of 1
		for _, p := range at {
			*p = 1
		}
		*at[k] = 1 + 1e-6*(float64(k%2)-0.5)
	case 8: // a mean below 0
		for _, p := range at {
			*p = -rng.Float64()
		}
	}
}

// TestHalve pins the 2×2 halving to halveRef: every output width from 1 to
// 33 — through eight vector steps and every tail — over 1 to 6 output rows
// whose source and destination strides are wider than the runs, the
// source's last element and the destination's last output each against a
// guard page.
func TestHalve(t *testing.T) {
	rng := NewRNG(43)
	eachLevel(t, func(level string) {
		for n := 1; n <= 33; n++ {
			for rows := 1; rows <= 6; rows++ {
				dn, sn := n+2, 2*n+3
				src, freeSrc := guardpage.Alloc((2*rows-1)*sn + 2*n)
				for r := 0; r < rows; r++ {
					top, bot := src[2*r*sn:], src[(2*r+1)*sn:]
					for i := 0; i < n; i++ {
						halveBlock(top, bot, i, rng)
					}
				}
				dst, freeDst := guardedRows(rows, dn, n)
				Kernels{}.Halve(dst, src, n, rows, dn, sn)
				for j, got := range dst {
					want := sentinel
					if r, i := j/dn, j%dn; i < n {
						top, bot := src[2*r*sn:], src[(2*r+1)*sn:]
						want = halveRef(top[2*i], top[2*i+1], bot[2*i], bot[2*i+1])
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s n=%d rows=%d: output %d = %v (%#x), want %v (%#x)",
							level, n, rows, j, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
				freeSrc()
				freeDst()
			}
		}
	})
}

// TestHalveNegativeZeroBlock: four −0 inputs halve to +0, which only a sum
// that starts from +0 gives; one −0 among other values cannot tell.
func TestHalveNegativeZeroBlock(t *testing.T) {
	eachLevel(t, func(level string) {
		for _, n := range []int{1, 4, 5} { // a tail, a vector step, both
			src := make([]float64, 4*n)
			for i := range src {
				src[i] = math.Copysign(0, -1)
			}
			dst := make([]float64, n)
			Kernels{}.Halve(dst, src, n, 1, n, 2*n)
			for i, v := range dst {
				if v != 0 || math.Signbit(v) {
					t.Errorf("%s n=%d: output %d = %v (sign %v), want +0", level, n, i, v, math.Signbit(v))
				}
			}
		}
	})
}
