package tensor

import (
	"sync"
	"testing"
)

// TestPoolServesShortRequestFromLargerBuffer: a request is a view of the
// first r·c elements of a pooled buffer of its class, not a new buffer.
func TestPoolServesShortRequestFromLargerBuffer(t *testing.T) {
	p := NewPool()
	big := p.GetRaw(4, 16)
	if len(big.V) != 64 || cap(big.V) != 64 {
		t.Fatalf("4×16 from an empty pool: len %d cap %d, want 64 and 64", len(big.V), cap(big.V))
	}
	p.Put(big)
	short := p.GetRaw(3, 15)
	if short != big || &short.V[0] != &big.V[0] {
		t.Fatal("3×15 did not reuse the pooled 64-element buffer")
	}
	if short.R != 3 || short.C != 15 || len(short.V) != 45 || cap(short.V) != 64 {
		t.Fatalf("3×15 view: %d×%d len %d cap %d", short.R, short.C, len(short.V), cap(short.V))
	}
	// A request past the class takes a buffer of the next one.
	p.Put(short)
	if next := p.GetRaw(1, 65); next == short || cap(next.V) != 128 {
		t.Fatalf("65 elements: cap %d (reused the 64 buffer: %v), want a fresh 128", cap(next.V), next == short)
	}
}

// TestPoolGetZeroesRequest: Get clears the r·c elements it hands out and
// leaves the rest of the buffer as it was.
func TestPoolGetZeroesRequest(t *testing.T) {
	p := NewPool()
	m := p.GetRaw(8, 8)
	m.Fill(7)
	p.Put(m)
	z := p.Get(6, 6)
	if z != m {
		t.Fatal("6×6 did not reuse the pooled 8×8")
	}
	for i, v := range z.V {
		if v != 0 {
			t.Fatalf("element %d of the request is %v, want 0", i, v)
		}
	}
	for i, v := range z.V[len(z.V):cap(z.V)] {
		if v != 7 {
			t.Fatalf("element %d past the request is %v: Get cleared more than r·c", len(z.V)+i, v)
		}
	}
}

// TestPoolReusesExactFit: a buffer made by New, whose capacity is not a
// power of two, lands in its floor class and serves a request of exactly its
// size, and any request its floor class covers; a larger one goes past it.
func TestPoolReusesExactFit(t *testing.T) {
	p := NewPool()
	m := New(10, 10)
	p.Put(m)
	if got := p.GetRaw(20, 5); got != m || len(got.V) != 100 {
		t.Fatalf("20×5 from a pooled New(10, 10): reused %v, len %d", got == m, len(got.V))
	}
	p.Put(m)
	if got := p.GetRaw(1, 101); got == m {
		t.Fatal("101 elements served from a 100-element buffer")
	}
	if got := p.GetRaw(8, 8); got != m || len(got.V) != 64 {
		t.Fatalf("8×8 from the 100-element buffer in class 6: reused %v, len %d", got == m, len(got.V))
	}
}

// TestPoolClassesBounded: a sweep over every size up to 5000 leaves one
// buffer per power of two, not one per size.
func TestPoolClassesBounded(t *testing.T) {
	p := NewPool()
	for n := 1; n <= 5000; n++ {
		p.Put(p.GetRaw(1, n))
	}
	floats, classes := p.Held()
	if classes != 14 || floats != 1<<14-1 {
		t.Fatalf("after sizes 1..5000 the pool holds %d floats in %d classes, want %d in 14", floats, classes, 1<<14-1)
	}
}

// TestPoolConcurrent runs Get and Put of mixed sizes from several goroutines
// (meant for -race): every matrix has its shape, Get's are zero, and no
// buffer is handed to two goroutines at once.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := NewRNG(uint64(g + 1))
			for i := 0; i < 2000; i++ {
				r, c := 1+int(rng.Uint64()%16), 1+int(rng.Uint64()%64)
				m := p.Get(r, c)
				if m.R != r || m.C != c || len(m.V) != r*c {
					t.Errorf("Get(%d, %d) gave %d×%d len %d", r, c, m.R, m.C, len(m.V))
					return
				}
				for j, v := range m.V {
					if v != 0 {
						t.Errorf("Get(%d, %d) element %d is %v", r, c, j, v)
						return
					}
				}
				m.Fill(float64(g + 1)) // a buffer shared with another goroutine would race here
				p.Put(m)
			}
		}(g)
	}
	wg.Wait()
}
