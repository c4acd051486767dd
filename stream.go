package odin

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"odin/internal/dispatch"
	"odin/internal/obs"
	"odin/internal/qos"
	"odin/internal/query"
)

// StreamOptions configures one camera-stream session.
type StreamOptions struct {
	// Name labels the stream (diagnostics only).
	Name string
	// Workers bounds the sharded fan-out of the per-frame
	// project→select→detect stages. 0 uses the server default
	// (WithWorkers, which itself defaults to GOMAXPROCS). On a server
	// built WithDispatcher, Run windows are merged across streams and
	// processed at the server-wide worker budget, so Workers then applies
	// only to synchronous Process calls; results are identical at every
	// worker count either way.
	Workers int
	// MaxBatch caps how many already-arrived frames one Run dispatch
	// aggregates. Larger windows spread the per-window costs (one lock, one
	// fork-join per stage) over more frames, at the cost of per-frame
	// latency. 0 picks 4×Workers (at least 8).
	MaxBatch int
	// Buffer is the capacity of the channel Run returns. 0 picks MaxBatch.
	Buffer int
	// Weight is the stream's share of the fleet dispatcher's flush budget
	// (WithDispatcher): a weight-w session's frames are charged at 1/w
	// against the merged-batch budget, so it flushes proportionally more
	// per round under contention. 0 or 1 is an equal share. Ignored
	// without a dispatcher.
	Weight int
}

// StreamResult is one frame's outcome on a Run channel. Results are
// delivered in frame order regardless of how the stages were sharded.
type StreamResult struct {
	// Seq is the 0-based position of the frame within this Run. With
	// admission control (WithMaxQueue) dropped frames consume sequence
	// numbers too, so Seq stays contiguous across the session.
	Seq int
	// Frame is the input frame (with its ground truth, if any). Nil when
	// Dropped is set — the queue shed the frame before processing.
	Frame *Frame
	// Dropped marks a frame shed by the admission queue's drop policy.
	// The marker keeps the ledger exact — every admitted frame yields a
	// result, every shed frame yields a marker, nothing vanishes — but
	// carries no Frame and a zero Result.
	Dropped bool
	// Err, wrapping ErrFrameShape, marks a frame not of
	// Server.FrameShape(). It was not processed: the Result is zero and the
	// stream is as it would be had the frame never arrived.
	Err error
	Result
}

// WindowOptions configures a continuous-query subscription
// (Stream.Subscribe).
type WindowOptions struct {
	// Size is the number of frames aggregated per emitted window. 0 uses
	// the stream's MaxBatch. Window boundaries are frame-sequence based,
	// so they are deterministic regardless of how Run batched the frames.
	Size int
	// Buffer is the capacity of the subscription's result channel
	// (0 picks 4). A full channel applies backpressure to the stream's
	// Run loop, so consume window results concurrently with the Run
	// results (or size Buffer for the expected window count).
	Buffer int
}

// WindowResult is one window's aggregate on a subscription channel.
// Windows are emitted in frame order; the embedded QueryResult carries the
// count, per-frame counts and data-reduction stats for the window's
// frames.
type WindowResult struct {
	// Window is the 0-based window index within this subscription.
	Window int
	// StartSeq and EndSeq are the inclusive Run sequence range the window
	// covers. The final window of a session may be partial.
	StartSeq, EndSeq int
	// Err is non-nil when evaluating the window failed (the subscription
	// context was cancelled mid-window, or a custom batch model
	// misbehaved). An errored window carries no aggregate and is the
	// subscription's final emission: the channel closes after it.
	Err error
	// GenLo and GenHi are the lowest and highest model-set generation that
	// served the window's frames — a window spanning a model swap reports
	// GenLo < GenHi, so per-window accuracy shifts can be attributed to
	// the swap.
	GenLo, GenHi uint64
	// RecoveryPending counts the window's frames served while a drift
	// recovery was still training (async mode; always 0 inline) — the
	// per-window visibility of the interim previous-best policy.
	RecoveryPending int
	// Degraded counts the window's frames served below full fidelity by
	// the adaptive controller (WithAdaptiveFidelity; always 0 otherwise).
	// Frames shed by the admission queue never reach subscriptions, so a
	// window under overload may also span a wider sequence range than its
	// frame count suggests.
	Degraded int
	QueryResult
}

// subscription is one standing query attached to a stream: a prepared
// plan plus the current window's accumulation state. All mutable state is
// touched only by the Run loop (and by the final flush), never
// concurrently.
type subscription struct {
	ctx    context.Context
	plan   *query.Plan
	shared bool // plan's model is the drift pipeline: reuse Run's results
	size   int
	ch     chan WindowResult

	win    int
	start  int
	last   int
	frames []*Frame
	dets   [][]Detection
	genLo  uint64
	genHi  uint64
	pendN  int
	degr   int
	closed bool
}

// window evaluates and resets the current accumulation. For shared plans
// it reduces the pipeline detections the Run loop already produced; for
// other plans it executes the model over the window's frames. A failed
// evaluation (cancelled subscription context, misbehaving custom batch
// model) is reported as a WindowResult carrying Err, so the consumer can
// distinguish it from a normal end of session.
func (sub *subscription) window() WindowResult {
	wr := WindowResult{
		Window: sub.win, StartSeq: sub.start, EndSeq: sub.last,
		GenLo: sub.genLo, GenHi: sub.genHi, RecoveryPending: sub.pendN,
		Degraded: sub.degr,
	}
	if sub.shared {
		wr.QueryResult = *sub.plan.ExecuteOver(sub.frames, sub.dets)
	} else if res, err := sub.plan.Execute(sub.ctx, sub.frames); err != nil {
		wr.Err = err
	} else {
		wr.QueryResult = *res
	}
	sub.win++
	sub.frames = sub.frames[:0]
	sub.dets = sub.dets[:0]
	return wr
}

// Stream is one camera session against a shared Server. A stream is not
// itself safe for concurrent Process calls (frames of one camera are
// ordered); open one Stream per camera instead — streams of the same
// Server process frames concurrently and share every model.
type Stream struct {
	srv      *Server
	name     string
	workers  int
	maxBatch int
	buffer   int
	weight   int

	// QoS configuration copied from the server at OpenStream.
	maxQueue int // 0: no admission queue; Run reads its input channel directly
	dropPol  qos.DropPolicy
	adaptive *AdaptiveFidelity

	closeOnce sync.Once
	done      chan struct{} // closed by Close; wakes blocked Run loops

	subMu     sync.Mutex
	subs      []*subscription
	runActive bool // a Run session owns the subscriptions' lifecycle

	// QoS session state. queue and ctrl belong to the active (or most
	// recent) Run session; qosActive gates Offer admissions. ctrl is not
	// itself concurrency-safe, so every access goes through qosMu.
	qosMu     sync.Mutex
	queue     *qos.Queue
	ctrl      *qos.Controller
	qosActive bool
}

// closedNow reports whether Close has been called.
func (st *Stream) closedNow() bool {
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// Name returns the stream's label.
func (st *Stream) Name() string { return st.name }

// Process runs one frame through the drift-aware pipeline synchronously
// and returns its result. It honours ctx before starting (not mid-frame). A
// frame not of Server.FrameShape() is rejected with ErrFrameShape and leaves
// the stream as it was.
func (st *Stream) Process(ctx context.Context, f *Frame) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if st.closedNow() {
		return Result{}, ErrStreamClosed
	}
	p, err := st.srv.pipe()
	if err != nil {
		return Result{}, err
	}
	if err := st.srv.checkFrame(f); err != nil {
		return Result{}, err
	}
	return p.Process(f), nil
}

// Subscribe attaches a standing continuous query to the stream: every
// frame a Run session processes is offered to the subscription, and each
// completed window of o.Size frames emits one WindowResult aggregate on
// the returned channel, in frame order. Plans whose model is the
// drift-aware pipeline ("odin") reduce the session's own sharded
// ProcessBatch results — detection runs once per window no matter how many
// subscriptions share the stream, and their filters act as counting
// filters (the pipeline must observe every frame for drift detection).
// Plans bound to other models execute their model over each window's
// frames, with filters skipping model work exactly as in offline queries.
//
// The subscription lives until its context is cancelled, the stream is
// closed, or the Run session ends — a session's end flushes a final
// (possibly partial) window and closes the channel. Subscribing before
// Run starts is allowed; frames only flow while a Run session is active
// (synchronous Process calls do not feed subscriptions).
func (st *Stream) Subscribe(ctx context.Context, pq *PreparedQuery, o WindowOptions) (<-chan WindowResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pq == nil {
		return nil, errors.New("odin: nil prepared query")
	}
	if pq.srv != st.srv {
		return nil, ErrForeignQuery
	}
	if err := st.srv.alive(); err != nil {
		return nil, err
	}
	size := o.Size
	if size <= 0 {
		size = st.maxBatch
	}
	buffer := o.Buffer
	if buffer <= 0 {
		buffer = 4
	}
	sub := &subscription{
		ctx:    ctx,
		plan:   pq.plan,
		shared: pq.pipelineShared,
		size:   size,
		ch:     make(chan WindowResult, buffer),
	}
	st.subMu.Lock()
	defer st.subMu.Unlock()
	if st.closedNow() {
		return nil, ErrStreamClosed
	}
	st.subs = append(st.subs, sub)
	return sub.ch, nil
}

// snapshotSubs copies the active subscription list.
func (st *Stream) snapshotSubs() []*subscription {
	st.subMu.Lock()
	defer st.subMu.Unlock()
	out := make([]*subscription, len(st.subs))
	copy(out, st.subs)
	return out
}

// dropSub closes a subscription's channel and removes it. Idempotent.
func (st *Stream) dropSub(sub *subscription) {
	st.subMu.Lock()
	defer st.subMu.Unlock()
	st.dropSubLocked(sub)
}

func (st *Stream) dropSubLocked(sub *subscription) {
	if sub.closed {
		return
	}
	sub.closed = true
	close(sub.ch)
	for i, s := range st.subs {
		if s == sub {
			st.subs = append(st.subs[:i], st.subs[i+1:]...)
			break
		}
	}
}

// deliverSubs offers one processed window of the Run session to every
// subscription, emitting completed aggregation windows along the way.
// seqs[i] is batch[i]'s Run sequence number — gapped where the admission
// queue shed frames (dropped frames consume sequence numbers but never
// reach subscriptions). Returns false when the session must abort (run
// context cancelled or stream closed while blocked on a subscriber).
func (st *Stream) deliverSubs(ctx context.Context, batch []*Frame, results []Result, seqs []int) bool {
	subs := st.snapshotSubs()
	if len(subs) == 0 {
		return true
	}
	for _, sub := range subs {
		if sub.ctx.Err() != nil {
			st.dropSub(sub)
			continue
		}
	frames:
		for i, f := range batch {
			if len(sub.frames) == 0 {
				sub.start = seqs[i]
				sub.genLo, sub.genHi = results[i].ModelGen, results[i].ModelGen
				sub.pendN = 0
				sub.degr = 0
			}
			sub.frames = append(sub.frames, f)
			sub.last = seqs[i]
			if g := results[i].ModelGen; g < sub.genLo {
				sub.genLo = g
			} else if g > sub.genHi {
				sub.genHi = g
			}
			if results[i].RecoveryPending {
				sub.pendN++
			}
			if results[i].Fidelity.Degraded() {
				sub.degr++
			}
			if sub.shared {
				sub.dets = append(sub.dets, results[i].Detections)
			}
			if len(sub.frames) < sub.size {
				continue
			}
			wr := sub.window()
			select {
			case sub.ch <- wr:
				if wr.Err != nil { // errored windows end the subscription
					st.dropSub(sub)
					break frames
				}
			case <-sub.ctx.Done():
				st.dropSub(sub)
				break frames
			case <-st.done:
				return false
			case <-ctx.Done():
				return false
			}
		}
	}
	return true
}

// finishSubs ends the Run session's subscriptions. A clean end (input
// exhausted) flushes each subscription's partial window before closing its
// channel; a cancelled session closes them without the flush (cancellation
// does not promise the partial window). The flush honours the Run context
// too, so an abandoned subscription channel cannot pin the session's
// goroutine past a cancellation.
func (st *Stream) finishSubs(ctx context.Context, clean bool) {
	// Loop until the list is observed empty under the lock that also
	// clears runActive: a Subscribe racing this teardown lands either in a
	// snapshot (and is closed here) or after runActive is cleared (and
	// belongs to the next session) — never orphaned.
	for {
		st.subMu.Lock()
		if len(st.subs) == 0 {
			st.runActive = false
			st.subMu.Unlock()
			return
		}
		subs := make([]*subscription, len(st.subs))
		copy(subs, st.subs)
		st.subMu.Unlock()
		for _, sub := range subs {
			if clean && len(sub.frames) > 0 && sub.ctx.Err() == nil {
				select {
				case sub.ch <- sub.window():
				case <-sub.ctx.Done():
				case <-st.done:
				case <-ctx.Done():
				}
			}
			st.dropSub(sub)
		}
	}
}

// Run consumes frames from in until it closes (or ctx is cancelled, or
// the stream is closed) and returns a channel of results in frame order.
// Arrived frames are aggregated into windows of at most MaxBatch and
// processed with the project and detect stages sharded across the
// stream's worker budget; results are bit-identical to sequential Process
// calls on the same frames. Cancellation closes the result channel
// without draining in. A frame not of Server.FrameShape() is not
// processed: its StreamResult carries Err (ErrFrameShape) in its place.
//
// Run pins the server's pipeline for its whole lifetime: every frame it
// consumes from in is processed, even if the server is closed mid-run
// (Close's "in-flight work finishes" contract). If the server was already
// closed (or never bootstrapped) when Run is called, the returned channel
// is closed immediately — and so are the stream's subscription channels
// (no session will feed them); check Process or OpenStream for the typed
// error. A stream carries at most one Run session at a time: a second Run
// while one is active also returns an immediately-closed channel, leaving
// the active session and its subscriptions untouched.
//
// On a server built WithDispatcher, the session joins the fleet batcher
// before Run returns: its windows merge with other cameras' windows into
// shared ProcessBatch calls (ordered by session join order), and the
// session leaves the fleet when the loop exits. Results are still
// delivered in this stream's frame order. A session whose buffered in and
// admission queue hold no frame holds no other camera's merged batch; one
// on an unbuffered in holds each until it submits (see inputWaiting).
//
// There is one session loop. Admission control (WithMaxQueue, implied by
// WithAdaptiveFidelity) changes where a window comes from and which
// fidelity each frame gets — nothing else (see windowSource). Frames the
// admission queue sheds yield StreamResults with Dropped set, in sequence
// order; with adaptive fidelity the session degrades to cheaper plans
// under sustained overload (see WithAdaptiveFidelity) and every result
// carries the fidelity that served it. At or under capacity nothing is
// dropped or degraded and results are bit-identical to a server without
// QoS.
func (st *Stream) Run(ctx context.Context, in <-chan *Frame) <-chan StreamResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan StreamResult, st.buffer)
	st.subMu.Lock()
	if st.runActive {
		st.subMu.Unlock()
		close(out)
		return out
	}
	st.runActive = true
	st.subMu.Unlock()
	p, err := st.srv.pipe()
	if err != nil {
		close(out)
		st.finishSubs(ctx, false)
		return out
	}
	bat := st.srv.dispatcher()
	next, queue := st.windowSource(ctx, in, bat == nil)
	// Join the fleet before returning, so callers that start N Runs in
	// order get deterministic session join order (the dispatcher's merge
	// order) regardless of goroutine scheduling.
	var sess *dispatch.Session
	if bat != nil {
		sess = bat.JoinWeighted(st.weight, inputWaiting(in, queue))
	}
	// Fidelity is per-frame data: a replay script or the live hysteresis
	// controller picks a degradation level, qos.ForLevel maps it to each
	// frame. Neither exists without adaptive fidelity — every frame is full.
	var ctrl *qos.Controller
	var script []int
	if af := st.adaptive; af != nil {
		if af.Script != nil {
			script = af.Script
		} else {
			ctrl = qos.NewController()
		}
	}
	st.qosMu.Lock()
	st.queue, st.ctrl = queue, ctrl
	st.qosActive = queue != nil
	st.qosMu.Unlock()

	go func() {
		clean := false
		// LIFO: out closes first, then subscriptions flush — so a consumer
		// draining out before the subscription channel cannot deadlock the
		// final window flush.
		defer func() { st.finishSubs(ctx, clean) }()
		defer close(out)
		defer func() {
			st.qosMu.Lock()
			st.qosActive = false
			st.qosMu.Unlock()
		}()
		if sess != nil {
			defer sess.Leave()
		}
		ob := st.srv.obs
		frames := make([]*Frame, 0, st.maxBatch)
		fids := make([]qos.Fidelity, 0, st.maxBatch)
		seqs := make([]int, 0, st.maxBatch)
		bad := make([]error, 0, st.maxBatch) // per entry: the frame's shape error
		prevLevel := 0
		for {
			entries, err := next()
			if err != nil {
				// ErrClosed with a live context and an open stream means
				// the input closed and the backlog drained: a clean end
				// that flushes partial subscription windows.
				clean = err == qos.ErrClosed && ctx.Err() == nil && !st.closedNow()
				return
			}
			// Degradation level for this window: scripted sessions derive
			// it per frame from the sequence number alone (bit-for-bit
			// replayable at any worker count), live sessions observe the
			// backlog the pop found — the depth left behind plus the
			// window just taken. (Depth after the pop alone is too noisy:
			// with queue ≈ 4×MaxBatch it oscillates across the mid-band,
			// which resets the patience counter and the controller never
			// engages even when the queue is pinned full.)
			level := 0
			if ctrl != nil {
				popped := 0
				for _, e := range entries {
					if e.DropN == 0 {
						popped++
					}
				}
				d, c := queue.Depth()
				st.qosMu.Lock()
				level = ctrl.Observe(float64(d+popped) / float64(c))
				st.qosMu.Unlock()
				if ob != nil && level != prevLevel {
					kind := obs.EvFidelityDegrade
					if level < prevLevel {
						kind = obs.EvFidelityRestore
					}
					ob.Event(kind, st.name, -1, -1,
						fmt.Sprintf("level %d -> %d", prevLevel, level))
				}
				prevLevel = level
			}
			frames, fids, seqs, bad = frames[:0], fids[:0], seqs[:0], bad[:0]
			degraded := false
			for _, e := range entries {
				if e.DropN > 0 {
					bad = append(bad, nil)
					continue
				}
				if !e.At.IsZero() {
					ob.StageDur(obs.StageQueueWait, time.Since(e.At), 1)
				}
				shapeErr := st.srv.checkFrame(e.Frame)
				bad = append(bad, shapeErr)
				if shapeErr != nil {
					continue
				}
				lv := level
				if script != nil {
					w := e.Seq / st.maxBatch
					if w >= len(script) {
						w = len(script) - 1
					}
					lv = script[w]
				}
				fid := qos.ForLevel(lv, e.Seq)
				degraded = degraded || fid.Degraded()
				frames = append(frames, e.Frame)
				fids = append(fids, fid)
				seqs = append(seqs, e.Seq)
			}

			var results []Result
			if len(frames) > 0 {
				batchFids := fids
				if !degraded {
					batchFids = nil // nil is the representation of all-full
				}
				if sess != nil {
					if results, err = sess.SubmitFid(ctx, st.done, frames, batchFids); err != nil {
						return // run context cancelled or stream closed
					}
				} else {
					results = p.ProcessBatchFid(frames, st.workers, batchFids)
				}
				// Standing queries observe the window before the per-frame
				// results go out, reusing the same sharded detections.
				if !st.deliverSubs(ctx, frames, results, seqs) {
					return
				}
			} else if sess != nil {
				// The input held no frame to serve: an empty window, which
				// returns at once with nothing, tells the fleet this
				// session is not building one.
				sess.SubmitFid(ctx, st.done, nil, nil)
			}

			// Emit in admission order: real results interleaved with one
			// Dropped marker per shed frame, so every frame the session
			// ever admitted or shed is accounted for on the out channel.
			ri := 0
			tE := ob.Now()
			emitted := 0
			for i, e := range entries {
				sr, n := StreamResult{Seq: e.Seq, Frame: e.Frame}, 1
				switch {
				case e.DropN > 0:
					sr.Dropped, n = true, e.DropN
					p.AddDropped(n)
				case bad[i] != nil:
					sr.Err = bad[i]
				default:
					sr.Result = results[ri]
					ri++
				}
				for ; n > 0; n-- {
					select {
					case <-ctx.Done():
						return
					case <-st.done:
						return
					case out <- sr:
						emitted++
						sr.Seq++
					}
				}
			}
			ob.Stage(obs.StageEmit, tE, emitted)
		}
	}()
	return out
}

// inputWaiting is a dispatched session's input probe: whether a frame is
// waiting on in or in the admission queue (nil without one). It is nil when
// in is unbuffered, since a sender blocked on it cannot be seen: such a
// session holds every merged flush until it submits, as a lock-step driver
// needs.
func inputWaiting(in <-chan *Frame, queue *qos.Queue) func() bool {
	if cap(in) == 0 {
		return nil
	}
	return func() bool {
		if len(in) > 0 {
			return true
		}
		if queue == nil {
			return false
		}
		d, _ := queue.Depth()
		return d > 0
	}
}

// windowSource is the one place that knows whether admission control is
// on. It returns the session's window source — a function that blocks for
// the next window of at most MaxBatch frames, in sequence order, or
// reports why there is none (qos.ErrClosed: the input ended and nothing
// is left; anything else: cancelled or closed) — and the admission queue
// behind it, nil when there is none.
//
// Without a queue the source reads in directly: it blocks for the
// window's first frame, greedily takes whatever has already arrived, and
// numbers the frames itself. No goroutine and no buffer sit between the
// caller's channel and the loop, so the caller's channel is the only
// back-pressure and a window is exactly what had arrived. With timeFill the
// fill is timed as the window's assembly stage; a dispatched session passes
// false, since the dispatcher times that stage from submit to flush. With a
// queue an intake goroutine admits frames from in under the drop policy — a
// blocked push (DropBlock) wakes on cancellation or stream close, and
// closing in closes the queue, which Pop reports once the backlog drains —
// and the source is Pop.
func (st *Stream) windowSource(ctx context.Context, in <-chan *Frame, timeFill bool) (func() ([]qos.Entry, error), *qos.Queue) {
	ob := st.srv.obs
	if st.maxQueue == 0 {
		fillObs := ob
		if !timeFill {
			fillObs = nil
		}
		seq := 0
		win := make([]qos.Entry, 0, st.maxBatch)
		return func() ([]qos.Entry, error) {
			win = win[:0]
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-st.done:
				return nil, ErrStreamClosed
			case f, ok := <-in:
				if !ok {
					return nil, qos.ErrClosed
				}
				win = append(win, qos.Entry{Frame: f, Seq: seq})
			}
			tA := fillObs.Now()
		fill:
			for len(win) < st.maxBatch {
				select {
				case f, ok := <-in:
					if !ok {
						break fill // flush, then end on the next call
					}
					win = append(win, qos.Entry{Frame: f, Seq: seq + len(win)})
				default:
					break fill
				}
			}
			seq += len(win)
			fillObs.Stage(obs.StageAssembly, tA, len(win))
			return win, nil
		}, nil
	}

	queue := qos.NewQueue(st.maxQueue, st.dropPol)
	// Arrival stamps feed the queue-wait stage metric; the uninstrumented
	// path never reads the clock.
	queue.StampArrivals(ob != nil)
	go func() {
		defer queue.Close()
		for {
			select {
			case <-ctx.Done():
				return
			case <-st.done:
				return
			case f, ok := <-in:
				if !ok {
					return
				}
				// The admission sample includes any DropBlock backpressure
				// wait — time a frame spends fighting for a queue slot.
				t0 := ob.Now()
				if queue.Push(ctx, st.done, f) != nil {
					return
				}
				ob.Stage(obs.StageAdmission, t0, 1)
			}
		}
	}()
	return func() ([]qos.Entry, error) { return queue.Pop(ctx, st.done, st.maxBatch) }, queue
}

// Offer submits one frame to the stream's active Run session without
// blocking — the explicit admission-control entry point. An admitted
// frame takes the next sequence number and yields a result on the Run
// channel in admission order, exactly as if it had arrived on the input
// channel; when the queue is full the frame is rejected with
// ErrOverloaded (counted in QoS().Rejected) and stays with the caller.
// Requires a server built WithMaxQueue (or WithAdaptiveFidelity) and an
// active Run session — ErrNoAdmission otherwise.
func (st *Stream) Offer(f *Frame) error {
	if st.closedNow() {
		return ErrStreamClosed
	}
	st.qosMu.Lock()
	q, active := st.queue, st.qosActive
	st.qosMu.Unlock()
	if q == nil || !active {
		return ErrNoAdmission
	}
	if !q.TryPush(f) {
		st.srv.obs.RejectedFrames(1)
		return ErrOverloaded
	}
	return nil
}

// StreamQoS is a snapshot of a stream's QoS state (Stream.QoS).
type StreamQoS struct {
	// Enabled reports whether the server runs admission control
	// (WithMaxQueue or WithAdaptiveFidelity).
	Enabled bool
	// Level is the adaptive controller's current degradation level (0 =
	// full fidelity). Always 0 for scripted or non-adaptive sessions.
	Level int
	// Transitions counts the adaptive controller's level changes, up and
	// down.
	Transitions int
	// Dropped counts frames the admission queue's drop policy shed (each
	// also yielded a Dropped StreamResult).
	Dropped uint64
	// Rejected counts Offer calls refused with ErrOverloaded.
	Rejected uint64
	// QueueFrames and QueueCap are the admission queue's current backlog
	// and its bound.
	QueueFrames int
	QueueCap    int
}

// QoS returns a snapshot of the stream's QoS state. Queue and controller
// state belong to a Run session: before the first Run everything except
// Enabled is zero, and after a session ends its final counters remain
// readable.
func (st *Stream) QoS() StreamQoS {
	s := StreamQoS{Enabled: st.maxQueue > 0}
	st.qosMu.Lock()
	defer st.qosMu.Unlock()
	if st.queue != nil {
		s.Dropped = st.queue.Dropped()
		s.Rejected = st.queue.Rejected()
		s.QueueFrames, s.QueueCap = st.queue.Depth()
	}
	if st.ctrl != nil {
		s.Level = st.ctrl.Level()
		s.Transitions = st.ctrl.Transitions()
	}
	return s
}

// Close ends the session. In-flight work finishes; subsequent Process
// calls return ErrStreamClosed and Run loops exit — including loops
// blocked waiting for input, which Close wakes. Subscriptions end: an
// active Run session closes them on its way out, otherwise Close closes
// them here. Closing a stream does not affect the shared server. Close is
// idempotent.
func (st *Stream) Close() error {
	st.closeOnce.Do(func() { close(st.done) })
	st.subMu.Lock()
	defer st.subMu.Unlock()
	if !st.runActive {
		for len(st.subs) > 0 {
			st.dropSubLocked(st.subs[0])
		}
	}
	return nil
}
