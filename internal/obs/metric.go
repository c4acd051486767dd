// Package obs is ODIN's unified observability layer: a low-overhead
// metrics registry (atomic counters, scrape-time gauge callbacks and
// fixed-bucket latency histograms), a per-frame pipeline tracer that times
// every serving stage, and a bounded ring of structured lifecycle events
// (drift, recovery, fidelity transitions, checkpoints).
//
// The package is designed around two constraints from DESIGN.md §12:
//
//   - Allocation-free hot path. Counter.Add and Histogram.Observe touch
//     only pre-allocated atomics; label rendering and map lookups happen
//     once, at registration time. The per-frame cost of an enabled
//     observer is a handful of atomic adds plus two monotonic clock reads
//     per stage.
//
//   - Strictly observational. Nothing in this package feeds back into the
//     pipeline: instrumentation reads timestamps and increments counters
//     but never influences batching, scheduling, fidelity or model state.
//     Every hook in the serving stack is nil-receiver-safe, so a disabled
//     observer is a nil pointer and the instrumented binary executes the
//     same computation bit-for-bit (the determinism matrix, DESIGN.md §8).
package obs

import (
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain one from Registry.Counter so it is exported on scrape.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
