package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 core with
// a xoshiro-style scramble) used everywhere in the repository so that every
// experiment is reproducible independent of the Go runtime's rand package.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so nearby seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// State returns the generator's internal state so it can be checkpointed.
// A generator rebuilt via SetState continues the exact sample sequence.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the internal state with a value previously captured by
// State. Unlike NewRNG it performs no warm-up draws: the next Uint64 is the
// one the captured generator would have produced.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		// Invariant: callers pass code-fixed spans; input cannot set them (Restore refuses other scenes).
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal sample (Box–Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * cosTurn(2*math.Pi*u2)
}

// SkipNorms advances the generator past n Norm calls without computing
// them: each takes draws until its u1 is non-zero, then one for u2.
func (r *RNG) SkipNorms(n int) {
	for i := 0; i < n; i++ {
		for r.Uint64()>>11 == 0 {
		}
		r.state += 0x9e3779b97f4a7c15
	}
}

// cosTurn returns math.Cos(x) bit for bit for 0 <= x < 2^29 (Norm passes
// [0, 2π)). It is math.cos's reduction and polynomials from
// $GOROOT/src/math/sin.go, expressions unchanged, with the octant's choice
// of polynomial and sign made by bit masks: the octant is random per draw,
// so math.cos's branches there mispredict about half the time.
func cosTurn(x float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	j := uint64(int64(x * (4 / math.Pi)))
	j += j & 1 // map zeros to origin
	y := float64(j)
	z := ((x - y*PI4A) - y*PI4B) - y*PI4C
	zz := z * z
	s := z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])
	c := 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
	// j is even: octants 2 and 6 (mod 8) take the sine polynomial, 2 and 4
	// flip the sign.
	useSin := -(j >> 1 & 1)
	bits := math.Float64bits(s)&useSin | math.Float64bits(c)&^useSin
	return math.Float64frombits(bits ^ (j>>1^j>>2)&1<<63)
}

// sinCoef and cosCoef are math's _sin and _cos.
var (
	sinCoef = [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCoef = [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

// NormVec fills a fresh length-n vector with standard normal samples.
func (r *RNG) NormVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FillNormal fills m with sigma-scaled normal samples.
func (r *RNG) FillNormal(m *Mat, sigma float64) {
	for i := range m.V {
		m.V[i] = r.Norm() * sigma
	}
}

// FillUniform fills m with uniform samples in [lo, hi).
func (r *RNG) FillUniform(m *Mat, lo, hi float64) {
	for i := range m.V {
		m.V[i] = r.Range(lo, hi)
	}
}
