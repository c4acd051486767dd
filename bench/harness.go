package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"odin"
)

// run is the state of one benchmark invocation: one workload, one seed,
// one pass (end-to-end with observability off, or per-layer with it on).
type run struct {
	spec     *benchSpec
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int
	dir      string // scratch directory inside the checkout, removed on exit
	// ckpt is the shared checkpoint's path. A caller that has already run
	// the shared set-up names its checkpoint here and sets setupReps to 0;
	// the workload then does only its own part of the set-up.
	ckpt      string
	setupReps int // whole set-ups timed for setup_s

	rep   *report
	spans *spanLog
	// t0 is when the workload's clock started: event times, window and
	// slice edges are nanoseconds after it.
	t0    time.Time
	speed *speedometer
	// httpRTTus is http_2cam's median round trip per frame, kept for the
	// replay to split into wire, pipeline and HTTP-server time.
	httpRTTus float64
	// fps is the workload's frames_per_s, kept for the replay's summary.
	fps float64
	// staged and batched are the replayed per-frame cost of the core
	// stages one by one and of ProcessBatch, in microseconds.
	staged, batched float64
	attempted       int
	failed          int
}

// fail counts n failed operations and says why on standard error.
func (r *run) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	fmt.Fprintf(os.Stderr, "bench: FAILED x%d: %s\n", n, fmt.Sprintf(format, args...))
}

// check counts one attempted invariant and fails it when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(1, format, args...)
	}
}

// camera is one stream session under load: the generator's side (in, dues)
// and what its consumer goroutine observed.
type camera struct {
	st  *odin.Stream
	in  chan *odin.Frame
	out <-chan odin.StreamResult
	// dues[seq] is when frame seq was due (open loop) or sent (closed
	// loop), in ns since the run's t0. The slice is allocated at full
	// length up front and element seq is written before the frame is sent,
	// so the consumer reads it without a lock.
	dues []int64
	sent int

	delivered int
	drops     int
	seqErrs   int
	lat       timed // per delivered result: receipt time, and receipt − due
	full      int
	stale     int // served while a recovery was pending
	depthMax  int
	first     []odin.Result // the first firstKeep results, for the fingerprint check
	firstKeep int
	// Model reuse: of the results for frames due from reuseFromNs on
	// (reusable), how many a landed model served at once: routed to a
	// cluster, with no recovery pending.
	reuseFromNs      int64
	reused, reusable int
}

// newCamera prepares a camera that can be sent maxFrames frames through an
// input channel inDepth deep. An open-loop generator must never block on a
// slow server (that would close the loop), so its channel holds the whole
// schedule: inDepth = maxFrames.
func newCamera(st *odin.Stream, maxFrames, inDepth int) *camera {
	return &camera{
		st:   st,
		in:   make(chan *odin.Frame, inDepth),
		dues: make([]int64, maxFrames),
	}
}

// send stamps and enqueues one frame; it reports false when the schedule's
// capacity is used up.
func (c *camera) send(f *odin.Frame, dueNs int64) bool {
	if c.sent == len(c.dues) {
		return false
	}
	c.dues[c.sent] = dueNs
	c.sent++
	c.in <- f
	return true
}

// consume drains the camera's results until the session ends.
func (c *camera) consume(t0 time.Time, tr *driftTracker) {
	next := 0
	for res := range c.out {
		now := time.Since(t0).Nanoseconds()
		if res.Seq != next {
			c.seqErrs++
		}
		next = res.Seq + 1
		if res.Dropped {
			c.drops++
			continue
		}
		c.delivered++
		due := c.dues[res.Seq]
		c.lat.at = append(c.lat.at, now)
		c.lat.ms = append(c.lat.ms, float64(now-due)/1e6)
		if c.reuseFromNs > 0 && due >= c.reuseFromNs {
			c.reusable++
			if res.ClusterID >= 0 && !res.RecoveryPending {
				c.reused++
			}
		}
		if res.Fidelity == odin.FidelityFull {
			c.full++
		}
		if res.RecoveryPending {
			c.stale++
		}
		if len(c.first) < c.firstKeep {
			c.first = append(c.first, res.Result)
		}
		if c.st != nil && res.Seq%32 == 0 {
			c.depthMax = max(c.depthMax, c.st.QoS().QueueFrames)
		}
		tr.observe(res, now)
	}
}

// driftEvent is one drift raised during the run and when its recovery
// first served a frame.
type driftEvent struct {
	cluster    int
	atNs       int64
	resolvedNs int64 // 0 while the recovery is pending
}

// driftTracker follows drift events across cameras: an event opens on the
// result that carries Drift and resolves on the first later result that
// the new cluster serves without RecoveryPending.
type driftTracker struct {
	mu     sync.Mutex
	events []driftEvent
	open   int
}

func (t *driftTracker) observe(res odin.StreamResult, now int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if res.Drift != nil {
		t.events = append(t.events, driftEvent{cluster: res.Drift.Cluster.ID, atNs: now})
		t.open++
	}
	if t.open == 0 || res.RecoveryPending {
		return
	}
	for i := range t.events {
		if e := &t.events[i]; e.resolvedNs == 0 && e.cluster == res.ClusterID && now > e.atNs {
			e.resolvedNs = now
			t.open--
		}
	}
}

// resolveAll closes every open event at now: used once WaitRecoveries has
// returned after the stream ended, when no later result can show the swap.
func (t *driftTracker) resolveAll(now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.events {
		if t.events[i].resolvedNs == 0 {
			t.events[i].resolvedNs = now
			t.open--
		}
	}
}

// ledger checks that every frame a camera was sent came back exactly once,
// in order, and not as a drop marker.
func (r *run) ledger(cams []*camera) (offered, delivered int) {
	for i, c := range cams {
		offered += c.sent
		delivered += c.delivered
		r.attempted += c.sent
		r.fail(c.seqErrs, "camera %d: results out of sequence", i)
		r.fail(c.drops, "camera %d: drop markers", i)
		if missing := c.sent - c.delivered - c.drops; missing != 0 {
			r.fail(max(missing, -missing), "camera %d: sent %d, got %d results and %d drop markers", i, c.sent, c.delivered, c.drops)
		}
	}
	return offered, delivered
}
