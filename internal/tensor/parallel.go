package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the shared parallel substrate for every kernel in the
// repository. Instead of spawning goroutines and filling a fresh channel on
// every call (as the old tensor.parallelRows and nn.parallelFor both did),
// a persistent pool of workers pulls chunk ranges off an atomic cursor and
// job records are recycled, so the steady-state cost of a parallel loop is
// a few channel sends (plus the caller's range closure).

// job is one Parallel invocation. Workers (and the submitting goroutine)
// claim half-open ranges [start, end) by advancing the atomic cursor until
// n is exhausted. The WaitGroup counts *chunks*, not queued copies: the
// submitter's Wait returns as soon as every chunk has run, no matter
// whether the queued copies were ever dequeued — so a submitter that ends
// up doing all the work itself (e.g. nested Parallel while every worker
// is busy) never blocks on the queue.
//
// refs counts the holders of the record — the submitter plus every queued
// copy — so it returns to jobFree only after the last stale copy has been
// dequeued and found the cursor exhausted; a recycled record is never
// visible to a worker still holding its previous life.
//
// A chunk that panics still counts as run: the first panic is kept in pan
// and re-raised on the submitter once every chunk is done, so it unwinds
// the goroutine that asked for the loop and no pool helper dies of it.
type job struct {
	fn    func(start, end int)
	n     int
	chunk int
	next  atomic.Int64
	wg    sync.WaitGroup
	refs  atomic.Int32
	mu    sync.Mutex
	pan   any
}

// jobFree is the free list of job records. A buffered channel rather than
// a sync.Pool: neither side ever allocates (a Pool's Put may, which the
// kernels' zero-allocation pins would see from a background worker), and
// the records are too few and too small to be worth handing back to the
// GC. A record is away from the list while its loop runs plus however long
// its stale copies sit in jobCh, so the list needs about one slot per
// concurrent submitter and a few more; 64 is generous, and overflow just
// falls to the GC.
var jobFree = make(chan *job, 64)

// release drops one holder's reference and recycles the record with the
// last one.
func (j *job) release() {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.fn = nil
	select {
	case jobFree <- j:
	default: // free list full; let the GC have it
	}
}

// run claims and executes chunks until the job is drained, marking one
// WaitGroup unit per completed chunk. Stale copies dequeued after the
// cursor is exhausted are no-ops.
func (j *job) run() {
	for {
		start := int(j.next.Add(int64(j.chunk))) - j.chunk
		if start >= j.n {
			return
		}
		end := start + j.chunk
		if end > j.n {
			end = j.n
		}
		j.call(start, end)
	}
}

// call runs one chunk and marks it done, keeping its panic if it is the
// job's first.
func (j *job) call(start, end int) {
	defer func() {
		if p := recover(); p != nil {
			j.mu.Lock()
			if j.pan == nil {
				j.pan = p
			}
			j.mu.Unlock()
		}
		j.wg.Done()
	}()
	j.fn(start, end)
}

var (
	parMu      sync.Mutex
	parTarget  atomic.Int64 // workers Parallel fans out to (incl. the caller)
	parStarted int          // background worker goroutines launched so far
	jobCh      chan *job
)

func init() {
	parTarget.Store(int64(runtime.GOMAXPROCS(0)))
}

// Parallelism returns the number of workers Parallel fans out to, the
// submitting goroutine included.
func Parallelism() int { return int(parTarget.Load()) }

// SetParallelism sets the worker count used by Parallel (the submitting
// goroutine counts as one worker). n < 1 resets to GOMAXPROCS. Background
// workers are started lazily and never torn down; raising the value above
// GOMAXPROCS is mainly useful to exercise the concurrent paths in tests.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	parTarget.Store(int64(n))
}

// ensureWorkers launches background workers so at least want-1 helpers
// exist alongside the caller.
func ensureWorkers(want int) {
	parMu.Lock()
	defer parMu.Unlock()
	if jobCh == nil {
		jobCh = make(chan *job, 256)
	}
	for parStarted < want-1 {
		parStarted++
		go func() {
			for j := range jobCh {
				j.run()
				j.release()
			}
		}()
	}
}

// parallelMinWork is the estimated scalar-op count below which fan-out
// costs more than it saves and the loop runs inline.
const parallelMinWork = 1 << 17

// runsInline reports whether Parallel would run a loop of this size on the
// calling goroutine. Kernels consult it before constructing their range
// closure: the inline path then calls a top-level function directly, so
// sub-threshold kernel invocations (and every invocation on a single-core
// runner) allocate nothing at all.
func runsInline(n, work int) bool {
	w := int(parTarget.Load())
	if w > n {
		w = n
	}
	return w <= 1 || work < parallelMinWork
}

// Parallel runs fn over chunked subranges of [0, n). When work — an
// estimate of the total scalar operations — is large enough to amortise
// hand-off, chunks are distributed across the persistent worker pool; the
// caller participates, so the loop always makes progress even when every
// background worker is busy. fn must be safe to run concurrently on
// disjoint ranges.
func Parallel(n, work int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	w := int(parTarget.Load())
	if w > n {
		w = n
	}
	if w <= 1 || work < parallelMinWork {
		fn(0, n)
		return
	}
	dispatch(n, w, fn)
}

// ParallelWorkers is the frame-level sharding primitive of the streaming
// pipeline: it runs fn over chunked subranges of [0, n) with the fan-out
// capped at workers concurrent executors (the caller included), independent
// of the global parallelism target and with no minimum-work gate — callers
// use it when each index is a whole frame's worth of compute. Chunks are
// claimed off the same persistent worker pool Parallel uses. fn must be
// safe to run concurrently on disjoint ranges; which indices land on which
// worker is unspecified, so determinism requires each index to write only
// its own output slot.
func ParallelWorkers(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	dispatch(n, workers, fn)
}

// dispatch fans fn out across w executors via the persistent worker pool.
func dispatch(n, w int, fn func(start, end int)) {
	ensureWorkers(w)

	var j *job
	select {
	case j = <-jobFree:
	default:
		j = new(job)
	}
	j.fn, j.n = fn, n
	// Oversubscribe chunks ×4 so a straggler worker cannot hold the whole
	// loop hostage; the cursor hands out the slack dynamically.
	j.chunk = (n + 4*w - 1) / (4 * w)
	if j.chunk < 1 {
		j.chunk = 1
	}
	j.next.Store(0)
	j.refs.Store(1)
	chunks := (n + j.chunk - 1) / j.chunk
	j.wg.Add(chunks)
	for h := 0; h < w-1 && h < chunks-1; h++ {
		// Non-blocking: if the queue is full, the caller simply runs the
		// remainder itself — blocking here could deadlock with every
		// worker submitting.
		j.refs.Add(1)
		select {
		case jobCh <- j:
		default:
			j.refs.Add(-1)
			h = chunks // queue full; stop offering copies
		}
	}
	j.run()
	j.wg.Wait()
	p := j.pan
	j.pan = nil
	j.release()
	if p != nil {
		panic(p)
	}
}
