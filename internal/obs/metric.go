// Package obs is ODIN's unified observability layer: a low-overhead
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms with exact quantile extraction), a per-frame pipeline tracer
// that times every serving stage, and a bounded ring of structured
// lifecycle events (drift, recovery, fidelity transitions, checkpoints).
//
// The package is designed around two constraints from DESIGN.md §12:
//
//   - Allocation-free hot path. Counter.Add, Gauge.Set and
//     Histogram.Observe touch only pre-allocated atomics; label rendering
//     and map lookups happen once, at registration time. The per-frame
//     cost of an enabled observer is a handful of atomic adds plus two
//     monotonic clock reads per stage.
//
//   - Strictly observational. Nothing in this package feeds back into the
//     pipeline: instrumentation reads timestamps and increments counters
//     but never influences batching, scheduling, fidelity or model state.
//     Every hook in the serving stack is nil-receiver-safe, so a disabled
//     observer is a nil pointer and the instrumented binary executes the
//     same computation bit-for-bit (gated by TestObsFingerprintParityWorkers).
package obs

import (
	"math"
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

// Gauge is a metric that can go up and down. The zero value is unusable;
// obtain one from Registry.Gauge.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
