package tensor

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// forceParallel runs fn with the worker pool fanned out wide enough that
// chunks really are claimed concurrently (even on one core), restoring the
// previous setting afterwards.
func forceParallel(t *testing.T, workers int, fn func()) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(workers)
	defer SetParallelism(prev)
	fn()
}

func TestParallelCoversRangeExactlyOnce(t *testing.T) {
	forceParallel(t, 8, func() {
		const n = 10_000
		hits := make([]int64, n)
		Parallel(n, 1<<20, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt64(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d visited %d times", i, h)
			}
		}
	})
}

func TestParallelSmallRunsInline(t *testing.T) {
	// Below the work threshold the loop must run on the calling goroutine
	// in order, so side effects need no synchronisation.
	var order []int
	Parallel(16, 10, func(start, end int) {
		for i := start; i < end; i++ {
			order = append(order, i)
		}
	})
	if len(order) != 16 {
		t.Fatalf("visited %d of 16", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline run out of order at %d: %v", i, v)
		}
	}
}

// TestParallelNested: a Parallel body that itself calls Parallel must
// complete even when every worker is occupied — completion is tracked by
// chunk execution, not by queue consumption, so submitters that end up
// doing all the inner work themselves never block on the queue.
func TestParallelNested(t *testing.T) {
	forceParallel(t, 4, func() {
		var total atomic.Int64
		Parallel(8, 1<<20, func(s, e int) {
			for i := s; i < e; i++ {
				Parallel(100, 1<<20, func(s2, e2 int) {
					total.Add(int64(e2 - s2))
				})
			}
		})
		if got := total.Load(); got != 800 {
			t.Fatalf("nested parallel covered %d of 800", got)
		}
	})
}

// TestParallelWorkersCoversRangeExactlyOnce: the bounded-fan-out variant
// must visit every index exactly once regardless of the requested worker
// count, including counts above GOMAXPROCS and above the global target.
func TestParallelWorkersCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 33} {
		const n = 5_000
		hits := make([]int64, n)
		ParallelWorkers(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt64(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// TestParallelWorkersSingleRunsInline: workers ≤ 1 must run on the calling
// goroutine in order (no pool hand-off), like Parallel under the threshold.
func TestParallelWorkersSingleRunsInline(t *testing.T) {
	var order []int
	ParallelWorkers(16, 1, func(start, end int) {
		for i := start; i < end; i++ {
			order = append(order, i)
		}
	})
	if len(order) != 16 {
		t.Fatalf("visited %d of 16", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline run out of order at %d: %v", i, v)
		}
	}
	ParallelWorkers(0, 4, func(start, end int) { t.Fatal("fn must not run for empty ranges") })
}

// TestParallelWorkersNestedKernels: a sharded frame loop whose body calls
// the kernel-level Parallel (the streaming pipeline's shape) must complete
// without deadlock and cover all inner work.
func TestParallelWorkersNestedKernels(t *testing.T) {
	var total atomic.Int64
	ParallelWorkers(8, 4, func(s, e int) {
		for i := s; i < e; i++ {
			Parallel(100, 1<<20, func(s2, e2 int) {
				total.Add(int64(e2 - s2))
			})
		}
	})
	if got := total.Load(); got != 800 {
		t.Fatalf("nested work covered %d of 800", got)
	}
}

// goroutineID returns the calling goroutine's number, from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestParallelHelperPanicReachesCaller: a chunk that panics on a pool helper
// does not kill the process. Its panic is re-raised on the goroutine that
// called Parallel, after every other chunk has run, and the pool keeps
// working. The two chunks meet before either goes on, so they run at once
// on two goroutines, and only the one that is not the caller panics.
func TestParallelHelperPanicReachesCaller(t *testing.T) {
	forceParallel(t, 2, func() {
		caller := goroutineID()
		var arrived, finished atomic.Int32
		got := func() (p any) {
			defer func() { p = recover() }()
			Parallel(2, 1<<20, func(start, end int) {
				arrived.Add(1)
				for deadline := time.Now().Add(10 * time.Second); arrived.Load() < 2; runtime.Gosched() {
					if time.Now().After(deadline) {
						panic("the second chunk never started")
					}
				}
				if goroutineID() != caller {
					panic("helper chunk")
				}
				finished.Add(1)
			})
			return nil
		}()
		if got != "helper chunk" || finished.Load() != 1 {
			t.Fatalf("recovered %v with %d chunks finished, want the helper's panic after the caller's chunk", got, finished.Load())
		}
	})
	TestParallelCoversRangeExactlyOnce(t)
}

func TestParallelZeroAndNegative(t *testing.T) {
	called := false
	Parallel(0, 1<<20, func(start, end int) { called = true })
	Parallel(-3, 1<<20, func(start, end int) { called = true })
	if called {
		t.Fatal("fn must not run for empty ranges")
	}
}

// TestMatMulParallelMatchesSerial: each dst row is computed by exactly one
// worker with a fixed k-order, so results are bit-identical no matter how
// many workers claim chunks.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(3)
	a := New(37, 61)
	b := New(61, 43)
	rng.FillNormal(a, 1)
	rng.FillNormal(b, 1)

	serialAB := New(37, 43)
	serialAT := New(61, 43)
	serialBT := New(37, 61)
	bt := New(61, 61)
	rng.FillNormal(bt, 1)
	prev := Parallelism()
	SetParallelism(1)
	MatMulInto(serialAB, a, b)
	MatMulATInto(serialAT, a, serialAB)
	MatMulBTInto(serialBT, a, bt)
	SetParallelism(prev)

	forceParallel(t, 8, func() {
		gotAB := New(37, 43)
		gotAT := New(61, 43)
		gotBT := New(37, 61)
		MatMulInto(gotAB, a, b)
		MatMulATInto(gotAT, a, gotAB)
		MatMulBTInto(gotBT, a, bt)
		for i := range gotAB.V {
			if gotAB.V[i] != serialAB.V[i] {
				t.Fatalf("MatMul differs at %d under parallelism", i)
			}
		}
		for i := range gotAT.V {
			if gotAT.V[i] != serialAT.V[i] {
				t.Fatalf("MatMulAT differs at %d under parallelism", i)
			}
		}
		for i := range gotBT.V {
			if gotBT.V[i] != serialBT.V[i] {
				t.Fatalf("MatMulBT differs at %d under parallelism", i)
			}
		}
	})
}

func TestMatMulBiasInto(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	bias := FromVec([]float64{0.5, -1})
	got := New(2, 2)
	MatMulBiasInto(got, a, b, bias)
	want := []float64{58.5, 63, 139.5, 153}
	for i, v := range got.V {
		if v != want[i] {
			t.Fatalf("matmul+bias: got %v, want %v", got.V, want)
		}
	}
}

func TestPoolRecyclesExactShapes(t *testing.T) {
	p := NewPool()
	m := p.Get(4, 5)
	for i := range m.V {
		m.V[i] = float64(i)
	}
	p.Put(m)
	// Same element count, different shape: storage is reused, contents of
	// Get are zeroed, GetRaw's are unspecified.
	r := p.Get(5, 4)
	if r.R != 5 || r.C != 4 {
		t.Fatalf("bad shape %dx%d", r.R, r.C)
	}
	if &r.V[0] != &m.V[0] {
		t.Fatal("pool did not reuse storage of the same size class")
	}
	for i, v := range r.V {
		if v != 0 {
			t.Fatalf("Get returned non-zero element %d: %v", i, v)
		}
	}
	p.Put(r)
	if raw := p.GetRaw(4, 5); &raw.V[0] != &m.V[0] {
		t.Fatal("GetRaw did not reuse storage")
	}
	// Mismatched size class allocates fresh storage.
	if other := p.Get(3, 3); &other.V[0] == &m.V[0] {
		t.Fatal("pool handed out a buffer of the wrong size")
	}
	// nil and empty puts are ignored.
	p.Put(nil, New(0, 0))
}
