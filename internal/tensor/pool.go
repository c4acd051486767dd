package tensor

import (
	"math/bits"
	"sync"
)

// Pool recycles matrices across calls so steady-state training and
// inference allocate (almost) nothing: the NN stack draws every scratch
// and output matrix from a shared Pool and hands dead ones back. Buckets
// are capacity classes — class k holds buffers with 2^k ≤ cap(V) < 2^(k+1)
// — and a request for r·c elements is a view of the first r·c of a buffer
// that covers it, so a batch of any size reuses the buffers a larger one
// left, and the pool holds at most one bucket per power of two.
type Pool struct {
	mu   sync.Mutex
	free [64][]*Mat
}

// NewPool returns an empty workspace pool.
func NewPool() *Pool { return &Pool{} }

// GetRaw returns an r×c matrix with unspecified contents. Use it when every
// element will be written before being read; use Get otherwise. It takes a
// buffer of capacity exactly r·c from r·c's floor class if there is one,
// else any buffer of its ceiling class, else allocates one of the ceiling
// class's size.
func (p *Pool) GetRaw(r, c int) *Mat {
	n := r * c
	if n <= 0 {
		return New(r, c)
	}
	hi := bits.Len(uint(n - 1))
	p.mu.Lock()
	m := p.take(bits.Len(uint(n))-1, n)
	if m == nil {
		m = p.take(hi, 0)
	}
	p.mu.Unlock()
	if m == nil {
		m = &Mat{V: make([]float64, 0, 1<<hi)}
	}
	m.R, m.C, m.V = r, c, m.V[:n]
	return m
}

// take removes and returns the last buffer of class k whose capacity is
// exactly capacity — any, if capacity is 0 — or nil.
func (p *Pool) take(k, capacity int) *Mat {
	b := p.free[k]
	for i := len(b) - 1; i >= 0; i-- {
		if m := b[i]; capacity == 0 || cap(m.V) == capacity {
			b[i] = b[len(b)-1]
			b[len(b)-1] = nil
			p.free[k] = b[:len(b)-1]
			return m
		}
	}
	return nil
}

// Get returns an all-zero r×c matrix.
func (p *Pool) Get(r, c int) *Mat {
	m := p.GetRaw(r, c)
	m.Zero()
	return m
}

// Put hands matrices back to the pool, each keyed by its capacity. A matrix
// must not be used — or put again — after being put, and its V must own
// everything up to its capacity; nil and empty matrices are ignored.
func (p *Pool) Put(ms ...*Mat) {
	p.mu.Lock()
	for _, m := range ms {
		if m == nil || cap(m.V) == 0 {
			continue
		}
		k := bits.Len(uint(cap(m.V))) - 1
		p.free[k] = append(p.free[k], m)
	}
	p.mu.Unlock()
}

// Held returns how many float64s the pool's buffers hold, capacity
// included, and in how many classes.
func (p *Pool) Held() (floats, classes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.free {
		for _, m := range b {
			floats += cap(m.V)
		}
		if len(b) > 0 {
			classes++
		}
	}
	return floats, classes
}
