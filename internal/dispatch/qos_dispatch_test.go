package dispatch

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"odin/internal/core"
	"odin/internal/qos"
	"odin/internal/synth"
)

// slowPipe delays every batch so tests can arrange concurrent events
// while a flush is in flight.
type slowPipe struct {
	*fakePipe
	delay time.Duration
}

func (s *slowPipe) ProcessBatchFid(frames []*synth.Frame, workers int, fids []qos.Fidelity) []core.Result {
	time.Sleep(s.delay)
	return s.fakePipe.ProcessBatchFid(frames, workers, fids)
}

// TestWeightedFlushSelection pins the weighted-round-robin cut rule
// white-box: with equal weights the budget admits one six-frame window per
// flush, the cursor parks on the session that was cut, and the next flush
// resumes there.
func TestWeightedFlushSelection(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 8, MaxLinger: time.Minute})
	s1, s2 := b.Join(), b.Join()

	mk := func(s *Session, n int) *window {
		return &window{sessID: s.id, weight: s.weight, frames: fp.frames(n), res: make(chan []core.Result, 1)}
	}
	w1, w2 := mk(s1, 6), mk(s2, 6)
	b.mu.Lock()
	b.pending = []*window{w1, w2}
	b.pendingFrames = 12
	sel := b.takeWeightedLocked()
	b.mu.Unlock()
	if len(sel) != 1 || sel[0] != w1 {
		t.Fatalf("first flush selected %d windows, want just session 1's", len(sel))
	}
	if b.rrNext != s2.id {
		t.Fatalf("cursor at %d, want session 2 (%d)", b.rrNext, s2.id)
	}
	if st := b.Stats(); st.PartialFlushes != 1 || st.QueuedWindows != 1 || st.QueuedFrames != 6 {
		t.Fatalf("stats after partial flush: %+v", st)
	}

	// Second flush resumes at the cut session even though session 1 has a
	// fresh window queued ahead of it.
	w1b := mk(s1, 6)
	b.mu.Lock()
	b.pending = append(b.pending, w1b)
	b.pendingFrames += 6
	sel = b.takeWeightedLocked()
	b.mu.Unlock()
	if len(sel) != 1 || sel[0] != w2 {
		t.Fatalf("rotation broken: second flush did not resume at the cut session")
	}
}

// TestWeightedFlushWeightShare: a weight-2 session's frames are charged at
// half cost, so its 8-frame window and a weight-1 session's 4-frame window
// fit one 8-budget flush together — with equal weights the same pair is
// split across two flushes.
func TestWeightedFlushWeightShare(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 8, MaxLinger: time.Minute})
	heavy, light := b.JoinWeighted(2), b.Join()

	mk := func(s *Session, n int) *window {
		return &window{sessID: s.id, weight: s.weight, frames: fp.frames(n), res: make(chan []core.Result, 1)}
	}
	w1, w2 := mk(heavy, 8), mk(light, 4)
	b.mu.Lock()
	b.pending = []*window{w1, w2}
	b.pendingFrames = 12
	sel := b.takeWeightedLocked()
	b.mu.Unlock()
	if len(sel) != 2 {
		t.Fatalf("weighted selection took %d windows, want both (8/2 + 4/1 = 8 ≤ budget)", len(sel))
	}
	if st := b.Stats(); st.PartialFlushes != 0 {
		t.Fatalf("unexpected partial flush: %+v", st)
	}
}

// TestWeightedFlushBoundsBatches: three sessions submitting six-frame
// windows against an eight-frame budget never see their windows merged
// past the budget — the per-camera latency bound — and every Submit still
// gets exactly its own results.
func TestWeightedFlushBoundsBatches(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 8, MaxLinger: 10 * time.Millisecond})
	const sessions = 3
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		sess := b.Join()
		frames := fp.frames(6)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sess.Leave()
			rs, err := sess.Submit(context.Background(), frames)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			checkResults(t, fp, frames, rs)
		}()
	}
	wg.Wait()
	fp.mu.Lock()
	defer fp.mu.Unlock()
	for i, batch := range fp.batches {
		if len(batch) > 8 {
			t.Fatalf("batch %d merged %d frames past the 8-frame budget", i, len(batch))
		}
	}
}

// TestSubmitCancelRacesLingerFlush races a Submit cancellation against the
// linger timer's flush, repeatedly: whichever wins, Submit must return
// either its own results or ctx.Err(), never hang, misroute, or trip the
// race detector.
func TestSubmitCancelRacesLingerFlush(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 1 << 20, MaxLinger: time.Millisecond})
	sess := b.Join()
	b.Join() // idle second session keeps fleet-ready off — only the timer flushes
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		frames := fp.frames(2)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			rs, err := sess.Submit(ctx, frames)
			switch {
			case err == nil:
				checkResults(t, fp, frames, rs)
			case err == context.Canceled:
			default:
				t.Errorf("iteration %d: %v", i, err)
			}
		}()
		time.Sleep(time.Duration(rng.Intn(2500)) * time.Microsecond)
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Submit hung after cancel/linger race", i)
		}
	}
}

// TestLeaveDuringInFlightWeightedFlush: a session leaves while a weighted
// flush is in flight and another window waits in the assembler. The leave
// must complete the fleet-ready condition for the queued window without
// disturbing the in-flight batch (run under -race in CI).
func TestLeaveDuringInFlightWeightedFlush(t *testing.T) {
	fp := newFakePipe()
	sp := &slowPipe{fakePipe: fp, delay: 30 * time.Millisecond}
	b := NewBatcher(sp, Config{MaxBatch: 4, MaxLinger: time.Minute})
	s1, s2, idle := b.Join(), b.Join(), b.Join()

	f1 := fp.frames(6) // over budget: flushes immediately, slowly
	r1 := make(chan []core.Result, 1)
	go func() {
		rs, err := s1.Submit(context.Background(), f1)
		if err != nil {
			t.Errorf("s1: %v", err)
		}
		r1 <- rs
	}()
	// Give the oversized window time to start its (slow) flush.
	time.Sleep(10 * time.Millisecond)
	if fp.batchCount() != 0 {
		t.Fatal("setup: first flush already completed; nothing is in flight")
	}
	f2 := fp.frames(2)
	r2 := make(chan []core.Result, 1)
	go func() {
		rs, err := s2.Submit(context.Background(), f2)
		if err != nil {
			t.Errorf("s2: %v", err)
		}
		r2 <- rs
	}()
	// Leave while the weighted flush is in flight: the departure must not
	// disturb the in-flight batch or the queued window.
	time.Sleep(5 * time.Millisecond)
	idle.Leave()

	select {
	case rs := <-r1:
		checkResults(t, fp, f1, rs)
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight flush never completed after mid-flight Leave")
	}
	// With s1 gone the fleet is just s2, so its queued window becomes
	// fleet-ready through this Leave.
	s1.Leave()
	select {
	case rs := <-r2:
		checkResults(t, fp, f2, rs)
	case <-time.After(10 * time.Second):
		t.Fatal("queued window never flushed after the fleet drained")
	}
	s2.Leave()
}

// TestSubmitFidRoutesFidelities: windows submitted with fidelities reach
// the pipeline as one merged slice in join order, padded with Full for
// plain windows.
func TestSubmitFidRoutesFidelities(t *testing.T) {
	fp := newFakePipe()
	b := NewBatcher(fp, Config{MaxBatch: 1 << 20, MaxLinger: time.Minute})
	s1, s2 := b.Join(), b.Join()
	f1, f2 := fp.frames(2), fp.frames(3)
	fids1 := []qos.Fidelity{qos.Lite, qos.Skip}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rs, err := s1.SubmitFid(context.Background(), f1, fids1)
		if err != nil {
			t.Errorf("s1: %v", err)
			return
		}
		checkResults(t, fp, f1, rs)
	}()
	go func() {
		defer wg.Done()
		rs, err := s2.Submit(context.Background(), f2)
		if err != nil {
			t.Errorf("s2: %v", err)
			return
		}
		checkResults(t, fp, f2, rs)
	}()
	wg.Wait()

	fp.mu.Lock()
	defer fp.mu.Unlock()
	if len(fp.fidCalls) != 1 {
		t.Fatalf("pipeline saw %d calls, want 1 merged batch", len(fp.fidCalls))
	}
	got := fp.fidCalls[0]
	want := []qos.Fidelity{qos.Lite, qos.Skip, qos.Full, qos.Full, qos.Full}
	if len(got) != len(want) {
		t.Fatalf("merged fids %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged fids %v, want %v", got, want)
		}
	}
}
