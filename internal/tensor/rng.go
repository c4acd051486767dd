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
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

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
