package dispatch

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odin/internal/core"
	"odin/internal/qos"
	"odin/internal/synth"
)

// fakePipe records every merged batch — frames and the fidelity slice
// handed along — and tags each frame's Result with a per-frame identity
// (via ClusterID), so tests can verify the demux returned exactly the
// right results to the right session.
type fakePipe struct {
	mu       sync.Mutex
	ids      map[*synth.Frame]int
	next     int
	batches  [][]*synth.Frame
	fidCalls [][]qos.Fidelity
}

func newFakePipe() *fakePipe { return &fakePipe{ids: make(map[*synth.Frame]int)} }

func (f *fakePipe) frames(n int) []*synth.Frame {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*synth.Frame, n)
	for i := range out {
		out[i] = &synth.Frame{}
		f.ids[out[i]] = f.next
		f.next++
	}
	return out
}

func (f *fakePipe) id(fr *synth.Frame) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ids[fr]
}

func (f *fakePipe) ProcessBatchFid(frames []*synth.Frame, workers int, fids []qos.Fidelity) []core.Result {
	f.mu.Lock()
	f.batches = append(f.batches, append([]*synth.Frame(nil), frames...))
	f.fidCalls = append(f.fidCalls, append([]qos.Fidelity(nil), fids...))
	out := make([]core.Result, len(frames))
	for i, fr := range frames {
		out[i] = core.Result{ClusterID: f.ids[fr]}
	}
	f.mu.Unlock()
	return out
}

func (f *fakePipe) batchCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.batches)
}

// checkResults asserts a Submit returned exactly its own frames' results,
// in order.
func checkResults(t *testing.T, fp *fakePipe, frames []*synth.Frame, results []core.Result) {
	t.Helper()
	if len(results) != len(frames) {
		t.Fatalf("got %d results for %d frames", len(results), len(frames))
	}
	for i, fr := range frames {
		if results[i].ClusterID != fp.id(fr) {
			t.Fatalf("result %d carries id %d, want %d (demux misrouted)", i, results[i].ClusterID, fp.id(fr))
		}
	}
}

// TestFleetReadyMergesInJoinOrder: three sessions submitting concurrently
// are merged into ONE ProcessBatch whose frame order is session join
// order — the deterministic cross-stream merge.
func TestFleetReadyMergesInJoinOrder(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 1 << 20, MaxLinger: time.Minute})
	const sessions = 3
	sess := make([]*Session, sessions)
	wins := make([][]*synth.Frame, sessions)
	for i := range sess {
		sess[i] = b.Join()
		wins[i] = fp.frames(4 + i)
	}
	var wg sync.WaitGroup
	for i := range sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := sess[i].Submit(context.Background(), wins[i])
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			checkResults(t, fp, wins[i], rs)
		}(i)
	}
	wg.Wait()
	if n := fp.batchCount(); n != 1 {
		t.Fatalf("fleet-ready flush issued %d batches, want 1 merged batch", n)
	}
	var want []*synth.Frame
	for _, w := range wins {
		want = append(want, w...)
	}
	for i, fr := range fp.batches[0] {
		if fr != want[i] {
			t.Fatalf("merged batch position %d out of join order", i)
		}
	}
	if st := b.Stats(); st.Batches != 1 || st.Windows != 3 || st.Frames != len(want) || st.MaxMerge != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestMaxBatchFlushesWithoutFleet: a window pushing the assembler past
// MaxBatch flushes immediately, without waiting for the other session.
func TestMaxBatchFlushesWithoutFleet(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 4, MaxLinger: time.Minute})
	a := b.Join()
	b.Join() // second session, never submits
	frames := fp.frames(5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rs, err := a.Submit(context.Background(), frames)
		if err != nil {
			t.Error(err)
			return
		}
		checkResults(t, fp, frames, rs)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("MaxBatch overflow did not flush")
	}
	if fp.batchCount() != 1 {
		t.Fatalf("batches %d", fp.batchCount())
	}
}

// TestLingerBoundsStarvation: with one session idle, the other's window
// still flushes within MaxLinger — the no-starvation guarantee.
func TestLingerBoundsStarvation(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 1 << 20, MaxLinger: 20 * time.Millisecond})
	a := b.Join()
	b.Join() // idle: blocks fleet-ready forever
	frames := fp.frames(3)
	start := time.Now()
	rs, err := a.Submit(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, fp, frames, rs)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("linger flush took %v", d)
	}
}

// TestLeaveUnblocksFleet: a session leaving mid-batch completes the
// fleet-ready condition for the remaining sessions (join/leave mid-batch,
// without waiting out the linger).
func TestLeaveUnblocksFleet(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 1 << 20, MaxLinger: time.Minute})
	a, idle := b.Join(), b.Join()
	frames := fp.frames(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rs, err := a.Submit(context.Background(), frames)
		if err != nil {
			t.Error(err)
			return
		}
		checkResults(t, fp, frames, rs)
	}()
	// Let a's window reach the assembler, then retire the idle session.
	for i := 0; i < 1000; i++ {
		b.mu.Lock()
		n := len(b.pending)
		b.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	idle.Leave()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Leave did not trigger the fleet-ready flush")
	}
	idle.Leave() // idempotent
}

// TestCancelWithdrawsFromAssembler: cancelling a Submit whose window is
// still in the assembler, or closing its done channel, withdraws it — the
// frames are never processed — and later flushes exclude it.
func TestCancelWithdrawsFromAssembler(t *testing.T) {
	for _, row := range []struct {
		name string
		want error // what the abandoned submit returns
	}{
		{"cancel", context.Canceled},
		{"done", ErrAbandoned},
	} {
		t.Run(row.name, func(t *testing.T) {
			fp := newFakePipe()
			b := NewBatcher(fp, Config{MaxBatch: 1 << 20, MaxLinger: time.Minute})
			a, other := b.Join(), b.Join()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			frames := fp.frames(3)
			errc := make(chan error, 1)
			go func() {
				_, err := a.SubmitFid(ctx, done, frames, nil)
				errc <- err
			}()
			for i := 0; i < 1000; i++ {
				b.mu.Lock()
				n := len(b.pending)
				b.mu.Unlock()
				if n == 1 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if row.want == ErrAbandoned {
				close(done)
			} else {
				cancel()
			}
			if err := <-errc; err != row.want {
				t.Fatalf("abandoned Submit returned %v, want %v", err, row.want)
			}

			// The withdrawn frames must never appear in any batch: a
			// leaves, and the other session's flush carries only its own
			// frames.
			a.Leave()
			oframes := fp.frames(2)
			rs, err := other.Submit(context.Background(), oframes)
			if err != nil {
				t.Fatal(err)
			}
			checkResults(t, fp, oframes, rs)
			fp.mu.Lock()
			defer fp.mu.Unlock()
			for _, batch := range fp.batches {
				for _, fr := range batch {
					for _, withdrawn := range frames {
						if fr == withdrawn {
							t.Fatal("withdrawn frame was processed")
						}
					}
				}
			}
		})
	}
}

// TestBatcherStress: sessions churn (join, submit random windows, leave)
// concurrently; every Submit must get exactly its own results. Run under
// -race in CI.
func TestBatcherStress(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 32, MaxLinger: time.Millisecond})
	var wg sync.WaitGroup
	for s := 0; s < 6; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			sess := b.Join()
			defer sess.Leave()
			for r := 0; r < 25; r++ {
				frames := fp.frames(1 + rng.Intn(7))
				rs, err := sess.Submit(context.Background(), frames)
				if err != nil {
					t.Errorf("session %d round %d: %v", s, r, err)
					return
				}
				checkResults(t, fp, frames, rs)
			}
		}(s)
	}
	wg.Wait()
	st := b.Stats()
	if st.Windows != 6*25 {
		t.Fatalf("flushed %d windows, want %d", st.Windows, 6*25)
	}
	if st.Batches > st.Windows {
		t.Fatalf("stats %+v: more batches than windows", st)
	}
	t.Logf("stress: %d windows in %d batches (max merge %d)", st.Windows, st.Batches, st.MaxMerge)
}

// TestEmptySubmit: a zero-frame window is a no-op.
func TestEmptySubmit(t *testing.T) {
	b := NewBatcher(newFakePipe(), Config{})
	s := b.Join()
	rs, err := s.Submit(context.Background(), nil)
	if err != nil || rs != nil {
		t.Fatalf("empty submit: %v %v", rs, err)
	}
	s.Leave()
}

// TestFlushWaitsOnlyForFedSessions: a joined session without a window
// pending holds a merged flush only while its input probe sees input
// waiting. A probe reporting none lets the other session's window flush
// at once; a probe reporting input, and a nil probe (what Join gives),
// hold that window until the session submits, and the two windows then
// merge in join order. The linger is a minute, so only the fleet rule
// flushes.
func TestFlushWaitsOnlyForFedSessions(t *testing.T) {
	for _, row := range []struct {
		name  string
		fed   func() bool
		holds bool
	}{
		{"no input waiting", func() bool { return false }, false},
		{"input waiting", func() bool { return true }, true},
		{"nil probe", nil, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			fp := newFakePipe()
			b := NewBatcher(fp, Config{MaxBatch: 1 << 20, MaxLinger: time.Minute})
			a, other := b.Join(), b.JoinWeighted(1, row.fed)
			fa, fo := fp.frames(3), fp.frames(2)
			got := make(chan []core.Result, 1)
			go func() {
				rs, err := a.Submit(context.Background(), fa)
				if err != nil {
					t.Error(err)
				}
				got <- rs
			}()
			if !row.holds {
				select {
				case rs := <-got:
					checkResults(t, fp, fa, rs)
				case <-time.After(5 * time.Second):
					t.Fatal("a session with no input waiting held the other's window")
				}
				return
			}
			select {
			case <-got:
				t.Fatal("the window flushed before the holding session submitted")
			case <-time.After(100 * time.Millisecond):
			}
			rs, err := other.Submit(context.Background(), fo)
			if err != nil {
				t.Fatal(err)
			}
			checkResults(t, fp, fo, rs)
			checkResults(t, fp, fa, <-got)
			if n := fp.batchCount(); n != 1 {
				t.Fatalf("%d batches, want one merged batch", n)
			}
			for i, fr := range append(fa, fo...) {
				if fp.batches[0][i] != fr {
					t.Fatalf("merged batch position %d out of join order", i)
				}
			}
		})
	}
}

// TestFlushWaitsForWindowInAssembly: a session whose window flushed while
// its input was waiting is assembling its next window from that input, so
// it keeps holding merged flushes after its probe reads empty — until it
// submits. An empty submit (the input held nothing to serve) releases the
// held window at once.
func TestFlushWaitsForWindowInAssembly(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 1 << 20, MaxLinger: time.Minute})
	var waiting atomic.Bool
	waiting.Store(true)
	x, y := b.JoinWeighted(1, waiting.Load), b.JoinWeighted(1, func() bool { return false })
	fx := fp.frames(2)
	rs, err := x.Submit(context.Background(), fx) // y does not hold: flushes at once
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, fp, fx, rs)

	waiting.Store(false) // x has taken its waiting input off the source
	fy := fp.frames(3)
	got := make(chan []core.Result, 1)
	go func() {
		rs, err := y.Submit(context.Background(), fy)
		if err != nil {
			t.Error(err)
		}
		got <- rs
	}()
	select {
	case <-got:
		t.Fatal("y's window flushed while x was assembling its next window")
	case <-time.After(100 * time.Millisecond):
	}
	if rs, err := x.Submit(context.Background(), nil); rs != nil || err != nil {
		t.Fatalf("empty submit: %v %v", rs, err)
	}
	select {
	case rs := <-got:
		checkResults(t, fp, fy, rs)
	case <-time.After(5 * time.Second):
		t.Fatal("x's empty submit did not release y's window")
	}
}
