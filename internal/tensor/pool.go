package tensor

import "sync"

// Pool recycles matrices across calls so steady-state training and
// inference allocate (almost) nothing: the NN stack draws every scratch
// and output matrix from a shared Pool and hands dead ones back. Buckets
// are keyed by element count — network shapes repeat exactly step to step,
// so an exact-size free list hits nearly always after warm-up.
type Pool struct {
	mu   sync.Mutex
	free map[int][]*Mat
}

// NewPool returns an empty workspace pool.
func NewPool() *Pool { return &Pool{free: make(map[int][]*Mat)} }

// GetRaw returns an r×c matrix with unspecified contents. Use it when every
// element will be written before being read; use Get otherwise.
func (p *Pool) GetRaw(r, c int) *Mat {
	n := r * c
	p.mu.Lock()
	if bucket := p.free[n]; len(bucket) > 0 {
		m := bucket[len(bucket)-1]
		bucket[len(bucket)-1] = nil
		p.free[n] = bucket[:len(bucket)-1]
		p.mu.Unlock()
		m.R, m.C = r, c
		return m
	}
	p.mu.Unlock()
	return New(r, c)
}

// Get returns an all-zero r×c matrix.
func (p *Pool) Get(r, c int) *Mat {
	m := p.GetRaw(r, c)
	m.Zero()
	return m
}

// Put hands matrices back to the pool. A matrix must not be used — or put
// again — after being put; nil and empty matrices are ignored.
func (p *Pool) Put(ms ...*Mat) {
	p.mu.Lock()
	for _, m := range ms {
		if m == nil || m.Len() == 0 {
			continue
		}
		p.free[m.Len()] = append(p.free[m.Len()], m)
	}
	p.mu.Unlock()
}
