// Package dispatch is the server-level fleet scheduler: it merges ready
// frame windows from many concurrent camera sessions into shared
// ProcessBatch calls (cross-stream batched detection, the ECCO-style
// sharing lever) and moves drift-triggered specializer training off the
// serving path onto a background trainer (the EdgeMA-style async
// adaptation). See DESIGN.md §7.
package dispatch

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/core"
	"odin/internal/obs"
	"odin/internal/qos"
	"odin/internal/synth"
)

// Pipeline is the slice of the core pipeline the batcher needs: one batch
// call taking the per-frame QoS fidelities submitted with SubmitFid (nil
// when every frame is full fidelity).
type Pipeline interface {
	ProcessBatchFid(frames []*synth.Frame, workers int, fids []qos.Fidelity) []core.Result
}

// The flush bounds a zero Config field picks.
const (
	DefaultMaxBatch  = 64
	DefaultMaxLinger = 2 * time.Millisecond
)

// Config tunes the batcher's flush policy.
type Config struct {
	// MaxBatch flushes the assembler as soon as the pending windows hold at
	// least this many frames, bounding the merged batch (a single window
	// larger than MaxBatch still flushes whole). 0 picks DefaultMaxBatch.
	MaxBatch int
	// MaxLinger bounds how long a submitted window waits to be co-batched
	// with other sessions' windows. It is the batcher's no-starvation
	// guarantee: every submitted window is processed within MaxLinger even
	// if no other session ever submits. 0 picks DefaultMaxLinger.
	MaxLinger time.Duration
	// Workers is the ProcessBatch fan-out for merged batches. 0 picks 1.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxLinger <= 0 {
		c.MaxLinger = DefaultMaxLinger
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// window is one session's submitted frame window awaiting a flush.
type window struct {
	sessID uint64
	weight int
	frames []*synth.Frame
	fids   []qos.Fidelity     // nil = full fidelity
	res    chan []core.Result // buffered 1: flushes never block on a consumer
	at     time.Time          // submit time; zero unless an observer is attached
}

// Stats is batcher telemetry; the json tags are the keys of /v1/stats's
// "dispatch" object.
type Stats struct {
	// Batches is the number of ProcessBatch calls issued.
	Batches int `json:"batches"`
	// Windows is the number of session windows flushed.
	Windows int `json:"windows"`
	// Frames is the total frames processed.
	Frames int `json:"frames"`
	// MaxMerge is the largest number of windows merged into one batch.
	MaxMerge int `json:"max_merge"`
	// PartialFlushes counts flushes that hit the weighted-round-robin
	// frame budget and left windows in the assembler — each one is a
	// flush where take-all would have let one session's backlog inflate
	// another camera's latency.
	PartialFlushes int `json:"partial_flushes"`
	// QueuedWindows and QueuedFrames snapshot the assembler backlog at
	// the moment Stats was called.
	QueuedWindows int `json:"queued_windows"`
	QueuedFrames  int `json:"queued_frames"`
}

// Batcher assembles cross-stream batches: sessions submit in-order frame
// windows, and the batcher flushes the assembler into a merged
// ProcessBatch call when (a) the pending frames reach MaxBatch, (b) every
// joined session has a window waiting — the fleet is ready, merging more
// would stall someone — or (c) the oldest pending window has lingered
// MaxLinger. A flush selects windows by weighted round-robin under a
// MaxBatch frame budget (takeWeightedLocked) instead of taking the whole
// assembler, so one camera's backlog cannot inflate every other camera's
// latency; windows left behind are drained by the processing loop or
// their re-armed linger timer.
//
// Determinism: within a merged batch, windows are ordered by session join
// order, so when sessions proceed in lock-step (every session submits a
// window before any receives results — the shape Stream.Run produces when
// all cameras are live), the serialized drift stage observes frames in
// round-robin session order, reproducing the per-stream interleaving
// exactly; and when the pending windows fit the budget the weighted
// selection IS take-all, so at/under capacity the merge is unchanged.
// See DESIGN.md §7 and §11 for the full contract.
type Batcher struct {
	pipe Pipeline
	cfg  Config

	mu            sync.Mutex
	nextID        uint64
	sessions      map[uint64]bool
	pending       []*window
	pendingFrames int
	timerGen      uint64 // invalidates linger timers armed for a flushed assembler
	lingerArmed   bool   // a live timer exists for the current timerGen
	rrNext        uint64 // session id the weighted round-robin resumes at
	stats         Stats

	// obsv is the optional observability hook: merge widths and
	// window-assembly waits. Strictly observational.
	obsv atomic.Pointer[obs.Observer]
}

// NewBatcher creates a batcher over the pipeline.
func NewBatcher(pipe Pipeline, cfg Config) *Batcher {
	return &Batcher{
		pipe:     pipe,
		cfg:      cfg.withDefaults(),
		sessions: make(map[uint64]bool),
	}
}

// SetObserver installs (or, with nil, removes) the observability hook.
// Install before serving so every window's assembly wait is stamped.
func (b *Batcher) SetObserver(ob *obs.Observer) {
	b.obsv.Store(ob)
}

// Stats returns a snapshot of the batcher telemetry.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.QueuedWindows = len(b.pending)
	st.QueuedFrames = b.pendingFrames
	return st
}

// Session is one stream's handle on the batcher. Sessions are not safe for
// concurrent use: a session carries at most one outstanding Submit at a
// time (the natural shape of a Stream.Run loop).
type Session struct {
	b      *Batcher
	id     uint64
	weight int
	left   bool
}

// Join registers a new session with weight 1. A joined session counts
// toward the fleet-ready flush condition, so an idle joined session delays
// merged flushes by up to MaxLinger; Leave when the session's window
// source ends.
func (b *Batcher) Join() *Session {
	return b.JoinWeighted(1)
}

// JoinWeighted registers a session with a flush weight: when a flush hits
// the frame budget, a session's windows are charged budget at 1/weight, so
// a weight-2 camera fits twice the frames of a weight-1 camera into one
// merged batch before the round-robin cuts it off. Weights below 1 clamp
// to 1.
func (b *Batcher) JoinWeighted(weight int) *Session {
	if weight < 1 {
		weight = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	b.sessions[id] = true
	return &Session{b: b, id: id, weight: weight}
}

// Leave unregisters the session. The remaining sessions may now be
// fleet-ready, so Leave can trigger a flush. Idempotent.
func (s *Session) Leave() {
	b := s.b
	b.mu.Lock()
	if s.left {
		b.mu.Unlock()
		return
	}
	s.left = true
	delete(b.sessions, s.id)
	flush := b.takeReadyLocked()
	b.mu.Unlock()
	b.process(flush)
}

// Submit hands one in-order window of the session's frames to the batcher
// and blocks until the merged batch containing it has been processed,
// returning the window's results in frame order. On ctx cancellation a
// window still in the assembler is withdrawn — its frames are never
// processed — while a window already merged into an in-flight batch is
// processed but its results discarded; either way Submit returns ctx.Err().
func (s *Session) Submit(ctx context.Context, frames []*synth.Frame) ([]core.Result, error) {
	return s.SubmitFid(ctx, frames, nil)
}

// SubmitFid is Submit with a per-frame fidelity assignment from the QoS
// layer (fids[i] governs frames[i]; nil means full fidelity). Fidelities
// ride along into the merged batch.
func (s *Session) SubmitFid(ctx context.Context, frames []*synth.Frame, fids []qos.Fidelity) ([]core.Result, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := s.b
	w := &window{sessID: s.id, weight: s.weight, frames: frames, fids: fids, res: make(chan []core.Result, 1)}
	if b.obsv.Load() != nil {
		w.at = time.Now()
	}
	b.mu.Lock()
	b.pending = append(b.pending, w)
	b.pendingFrames += len(frames)
	flush := b.takeReadyLocked()
	if flush == nil {
		b.armLingerLocked()
	}
	b.mu.Unlock()
	b.process(flush)

	select {
	case rs := <-w.res:
		return rs, nil
	case <-ctx.Done():
		b.withdraw(w)
		// The flush may have raced the cancellation; prefer real results.
		select {
		case rs := <-w.res:
			return rs, nil
		default:
		}
		return nil, ctx.Err()
	}
}

// takeReadyLocked selects a flush if a flush condition holds — pending
// frames at the MaxBatch budget, or every joined session has a window
// waiting — and returns the windows to process (nil otherwise). Caller
// holds b.mu.
func (b *Batcher) takeReadyLocked() []*window {
	if b.pendingFrames == 0 {
		return nil
	}
	if b.pendingFrames < b.cfg.MaxBatch && !b.fleetReadyLocked() {
		return nil
	}
	return b.takeWeightedLocked()
}

// fleetReadyLocked reports whether every joined session has a window in
// the assembler.
func (b *Batcher) fleetReadyLocked() bool {
	if len(b.sessions) == 0 || len(b.pending) < len(b.sessions) {
		return false
	}
	have := make(map[uint64]bool, len(b.pending))
	for _, w := range b.pending {
		have[w.sessID] = true
	}
	for id := range b.sessions {
		if !have[id] {
			return false
		}
	}
	return true
}

// takeWeightedLocked selects the next merged batch by weighted round-robin
// over the sessions with pending windows, bounded by the MaxBatch frame
// budget. Sessions are visited in id (join) order starting at the rrNext
// cursor; each visit takes the session's oldest window, charged against
// the budget at len(frames)/weight. When the budget runs out mid-rotation
// the cursor parks on the session that was cut off, so it is served first
// next flush — that rotation is what bounds a camera's wait to one budget
// cycle instead of one take-all backlog. At least one window is always
// taken (a single window larger than MaxBatch still flushes whole), and
// when everything pending fits the budget the selection equals take-all —
// which is why lock-step fleets see the exact pre-QoS merge. Leftover
// windows stay pending with a fresh linger timer. Caller holds b.mu.
func (b *Batcher) takeWeightedLocked() []*window {
	type queue struct {
		id     uint64
		weight int
		wins   []*window
	}
	byID := make(map[uint64]*queue)
	var order []*queue
	for _, w := range b.pending {
		q := byID[w.sessID]
		if q == nil {
			q = &queue{id: w.sessID, weight: w.weight}
			byID[w.sessID] = q
			order = append(order, q)
		}
		q.wins = append(q.wins, w)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
	start := 0
	for i, q := range order {
		if q.id >= b.rrNext {
			start = i
			break
		}
	}

	budget := b.cfg.MaxBatch
	spent := 0
	sel := make(map[*window]bool)
	var selected []*window
	cut := false
	for !cut {
		took := false
		for k := 0; k < len(order); k++ {
			q := order[(start+k)%len(order)]
			if len(q.wins) == 0 {
				continue
			}
			w := q.wins[0]
			cost := (len(w.frames) + q.weight - 1) / q.weight
			if spent+cost > budget && len(selected) > 0 {
				b.rrNext = q.id
				cut = true
				break
			}
			q.wins = q.wins[1:]
			sel[w] = true
			selected = append(selected, w)
			spent += cost
			took = true
		}
		if !took {
			break
		}
	}

	remaining := b.pending[:0]
	remFrames := 0
	for _, w := range b.pending {
		if !sel[w] {
			remaining = append(remaining, w)
			remFrames += len(w.frames)
		}
	}
	for i := len(remaining); i < len(b.pending); i++ {
		b.pending[i] = nil
	}
	b.pending = remaining
	b.pendingFrames = remFrames
	b.timerGen++
	b.lingerArmed = false
	if len(b.pending) > 0 {
		b.stats.PartialFlushes++
		b.armLingerLocked()
	}
	return selected
}

// armLingerLocked starts the no-starvation timer for the current assembler
// generation if none is live. Caller holds b.mu.
func (b *Batcher) armLingerLocked() {
	if b.lingerArmed || len(b.pending) == 0 {
		return
	}
	b.lingerArmed = true
	gen := b.timerGen
	time.AfterFunc(b.cfg.MaxLinger, func() {
		b.mu.Lock()
		if gen != b.timerGen {
			b.mu.Unlock()
			return
		}
		b.lingerArmed = false
		if len(b.pending) == 0 {
			b.mu.Unlock()
			return
		}
		flush := b.takeWeightedLocked()
		b.mu.Unlock()
		b.process(flush)
	})
}

// withdraw removes a window from the assembler if it has not been flushed
// yet (cancelled Submit).
func (b *Batcher) withdraw(w *window) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, pw := range b.pending {
		if pw == w {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			b.pendingFrames -= len(w.frames)
			return
		}
	}
}

// process runs the selected batch, then keeps draining: a partial
// (budget-cut) flush can leave the assembler over the flush threshold, and
// nothing else is guaranteed to trigger promptly — blocked Submits wait on
// these very results — so the processing goroutine re-checks until the
// backlog is below budget again (leftovers under the threshold flush via
// their linger timer).
func (b *Batcher) process(ws []*window) {
	for len(ws) > 0 {
		b.runBatch(ws)
		b.mu.Lock()
		ws = b.takeReadyLocked()
		b.mu.Unlock()
	}
}

// runBatch runs one merged batch: windows ordered by session join order (a
// stable, deterministic cross-stream merge), frames concatenated, one
// batch call, results split back per window. The merged fidelities stay nil
// unless some window carried any; a full-fidelity window merged beside a
// degraded one contributes explicit Full entries.
func (b *Batcher) runBatch(ws []*window) {
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].sessID < ws[j].sessID })
	total := 0
	degraded := false
	for _, w := range ws {
		total += len(w.frames)
		degraded = degraded || w.fids != nil
	}
	if ob := b.obsv.Load(); ob != nil {
		ob.MergeWindows(len(ws))
		for _, w := range ws {
			if !w.at.IsZero() {
				ob.StageDur(obs.StageAssembly, time.Since(w.at), len(w.frames))
			}
		}
	}
	merged := make([]*synth.Frame, 0, total)
	for _, w := range ws {
		merged = append(merged, w.frames...)
	}
	var fids []qos.Fidelity
	if degraded {
		fids = make([]qos.Fidelity, total) // zero value is Full
		off := 0
		for _, w := range ws {
			copy(fids[off:], w.fids)
			off += len(w.frames)
		}
	}
	results := b.pipe.ProcessBatchFid(merged, b.cfg.Workers, fids)
	off := 0
	for _, w := range ws {
		w.res <- results[off : off+len(w.frames) : off+len(w.frames)]
		off += len(w.frames)
	}
	b.mu.Lock()
	b.stats.Batches++
	b.stats.Windows += len(ws)
	b.stats.Frames += total
	if len(ws) > b.stats.MaxMerge {
		b.stats.MaxMerge = len(ws)
	}
	b.mu.Unlock()
}
