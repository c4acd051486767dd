package odin

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"odin/internal/dispatch"
	"odin/internal/qos"
)

// holdDispatch replaces s's dispatcher with one whose flush bounds (1024
// frames, a minute's linger) hold windows in the assembler until every
// joined camera has one. Call it before any stream opens.
func holdDispatch(s *Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batcher = dispatch.NewBatcher(s.pipeline, dispatch.Config{MaxBatch: 1024, MaxLinger: time.Minute, Workers: s.cfg.workers, Obs: s.obs})
}

// TestDispatchAsyncRecoveryConverges: with the full fleet mode on
// (dispatcher + async training), a drift event keeps serving frames with
// the previous-best model (flagged RecoveryPending), and the recovery
// converges — the trained model swaps in and later frames report the new
// generation.
func TestDispatchAsyncRecoveryConverges(t *testing.T) {
	srv, err := New(append(fastServerOptions(29),
		WithDispatcher(true),
		WithTrainAsync(true),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap on night only, so day is genuinely out of distribution.
	if err := srv.Bootstrap(context.Background(), srv.GenerateFrames(NightData, 80)); err != nil {
		t.Fatal(err)
	}
	st, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *Frame)
	go func() {
		defer close(in)
		for _, f := range srv.GenerateFrames(DayData, 260) {
			in <- f
		}
	}()
	drifts, pending := 0, 0
	for res := range st.Run(context.Background(), in) {
		if res.Drift != nil {
			drifts++
		}
		if res.RecoveryPending {
			pending++
		}
	}
	if drifts == 0 {
		t.Fatal("day stream on a night-bootstrapped server should drift")
	}
	if pending == 0 {
		t.Fatal("no frame was served under a pending recovery; async training never deferred")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.WaitRecoveries(ctx); err != nil {
		t.Fatalf("recovery did not converge: %v", err)
	}
	stats := srv.Stats()
	if stats.PendingRecoveries != 0 {
		t.Fatal("recoveries still pending after WaitRecoveries")
	}
	if stats.NumModels == 0 {
		t.Fatal("no specialized model resident after recovery")
	}
	if stats.ModelGen == 0 {
		t.Fatal("model generation never advanced")
	}
	res, err := st.Process(context.Background(), srv.GenerateFrames(DayData, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveryPending {
		t.Fatal("frame still flagged pending after convergence")
	}
	if gen := srv.Stats().ModelGen; res.ModelGen != gen {
		t.Fatalf("frame generation %d, server generation %d", res.ModelGen, gen)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchOverlappingDrifts: two cameras drifting into different
// domains at the same time queue two recoveries; both converge and each
// cluster gets its model. Run under -race in CI.
func TestDispatchOverlappingDrifts(t *testing.T) {
	srv, err := New(append(fastServerOptions(31),
		WithDispatcher(true),
		WithTrainAsync(true),
		// Keep both recoveries on the cheap distilled lite models: the
		// overlap under test is in the trainer queue, not in specialized
		// retraining.
		WithLabelDelay(100_000),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), srv.GenerateFrames(NightData, 80)); err != nil {
		t.Fatal(err)
	}
	// Both cameras share a stable night phase (the temp cluster promotes
	// one night concept), then drift into different domains at different
	// times — two separate drift events whose async recoveries overlap in
	// the trainer queue.
	camFrames := [][]*Frame{
		append(srv.GenerateFrames(NightData, 300), srv.GenerateFrames(DayData, 500)...),
		append(srv.GenerateFrames(NightData, 800), srv.GenerateFrames(SnowData, 300)...),
	}
	var wg sync.WaitGroup
	for c := range camFrames {
		st, err := srv.OpenStream(context.Background(), StreamOptions{
			Name: fmt.Sprintf("cam-%d", c), Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(st *Stream, frames []*Frame) {
			defer wg.Done()
			in := make(chan *Frame)
			go func() {
				defer close(in)
				for _, f := range frames {
					in <- f
				}
			}()
			n := 0
			for res := range st.Run(context.Background(), in) {
				if len(res.ModelsUsed) == 0 {
					t.Errorf("%s: frame %d served by no model", st.Name(), res.Seq)
				}
				n++
			}
			if n != len(frames) {
				t.Errorf("%s: %d/%d results", st.Name(), n, len(frames))
			}
		}(st, camFrames[c])
	}
	wg.Wait()
	timeout := 180 * time.Second
	if raceEnabled {
		timeout = 600 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.WaitRecoveries(ctx); err != nil {
		t.Fatalf("overlapping recoveries did not converge: %v", err)
	}
	if got := srv.Stats().DriftEvents; got < 2 {
		t.Fatalf("expected ≥2 drift events (one per drifting camera), got %d", got)
	}
	if got := srv.NumModels(); got < 2 {
		t.Fatalf("expected ≥2 recovered models, got %d", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchStreamJoinsAndLeavesMidBatch: a camera joining the fleet
// while another is mid-stream, and leaving before it ends, disturbs
// neither ordering nor completeness.
func TestDispatchStreamJoinsAndLeavesMidBatch(t *testing.T) {
	srv, err := New(append(fastServerOptions(37), WithDispatcher(true))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	const aFrames, bFrames = 60, 20
	framesA := srv.GenerateFrames(DayData, aFrames)
	framesB := srv.GenerateFrames(NightData, bFrames)

	stA, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-a", MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	inA := make(chan *Frame)
	outA := stA.Run(context.Background(), inA)
	resA := make(chan int, 1)
	go func() {
		n := 0
		for res := range outA {
			if res.Seq != n {
				t.Errorf("cam-a out of order: seq %d at %d", res.Seq, n)
			}
			n++
		}
		resA <- n
	}()
	feedA := make(chan struct{})
	go func() {
		defer close(inA)
		for i, f := range framesA {
			if i == aFrames/3 {
				close(feedA) // cam-b joins once cam-a is mid-stream
			}
			inA <- f
		}
	}()

	<-feedA
	stB, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-b", MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	inB := make(chan *Frame, bFrames)
	outB := stB.Run(context.Background(), inB)
	for _, f := range framesB {
		inB <- f
	}
	close(inB) // cam-b leaves while cam-a keeps streaming
	nB := 0
	for res := range outB {
		if res.Seq != nB {
			t.Fatalf("cam-b out of order: seq %d at %d", res.Seq, nB)
		}
		nB++
	}
	if nB != bFrames {
		t.Fatalf("cam-b delivered %d/%d results", nB, bFrames)
	}
	if nA := <-resA; nA != aFrames {
		t.Fatalf("cam-a delivered %d/%d results", nA, aFrames)
	}
	if got := srv.Stats().Frames; got != aFrames+bFrames {
		t.Fatalf("server saw %d frames, want %d", got, aFrames+bFrames)
	}
}

// TestDispatchCancelWithFramesInAssembler: ending a Run whose window sits
// in the dispatcher's assembler (the fleet is not ready — another joined
// camera is idle, and the linger is a minute) withdraws the window, whether
// the session's context is cancelled or its Stream is closed: the session
// ends within seconds, the withdrawn frames are never advanced through the
// pipeline, and the idle camera keeps serving.
func TestDispatchCancelWithFramesInAssembler(t *testing.T) {
	for _, row := range []struct {
		name string
		end  func(cancel context.CancelFunc, st *Stream)
	}{
		{"cancel", func(cancel context.CancelFunc, _ *Stream) { cancel() }},
		{"close", func(_ context.CancelFunc, st *Stream) { st.Close() }},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv := qosServer(t, 41, WithDispatcher(true))
			holdDispatch(srv)
			stA, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-a"})
			if err != nil {
				t.Fatal(err)
			}
			stB, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-b"})
			if err != nil {
				t.Fatal(err)
			}
			ctxA, cancelA := context.WithCancel(context.Background())
			defer cancelA()
			inA := make(chan *Frame, 4)
			outA := stA.Run(ctxA, inA)
			inB := make(chan *Frame)
			outB := stB.Run(context.Background(), inB) // joined but idle: blocks fleet-ready

			for _, f := range srv.GenerateFrames(DayData, 3) {
				inA <- f
			}
			// cam-a's window is now (or will shortly be) parked in the
			// assembler; end the session while it waits for the idle fleet.
			time.Sleep(20 * time.Millisecond)
			row.end(cancelA, stA)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range outA {
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("ended session did not end; its window was not withdrawn")
			}
			if got := srv.Stats().Frames; got != 0 {
				t.Fatalf("withdrawn frames were advanced: server saw %d frames", got)
			}

			// cam-b is the fleet now: its window flushes at once.
			inB <- srv.GenerateFrames(DayData, 1)[0]
			select {
			case r := <-outB:
				if r.Seq != 0 || r.Err != nil || r.Dropped {
					t.Fatalf("cam-b result %+v", r)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cam-b stopped serving after cam-a's session ended")
			}
			close(inB)
			for range outB {
			}
			if got := srv.Stats().Frames; got != 1 {
				t.Fatalf("server saw %d frames, want cam-b's 1", got)
			}
		})
	}
}

// TestDispatchIdleCameraDoesNotStallFleet: on a held dispatcher (a
// minute's linger), a camera running on an empty buffered input is seen
// to have no input waiting, so it does not hold another camera's window:
// cam-a's result arrives at once. A camera on an unbuffered input cannot
// be seen, so it holds cam-a's window until it gets a frame, and the two
// windows then merge.
func TestDispatchIdleCameraDoesNotStallFleet(t *testing.T) {
	for _, row := range []struct {
		name  string
		bufB  int
		holds bool
	}{
		{"buffered", 4, false},
		{"unbuffered", 0, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv := qosServer(t, 43, WithDispatcher(true))
			holdDispatch(srv)
			stA, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-a"})
			if err != nil {
				t.Fatal(err)
			}
			stB, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-b"})
			if err != nil {
				t.Fatal(err)
			}
			inA, inB := make(chan *Frame, 4), make(chan *Frame, row.bufB)
			outA := stA.Run(context.Background(), inA)
			outB := stB.Run(context.Background(), inB)
			frames := srv.GenerateFrames(DayData, 2)
			recv := func(out <-chan StreamResult, cam string) {
				t.Helper()
				select {
				case r := <-out:
					if r.Seq != 0 || r.Err != nil || r.Dropped {
						t.Fatalf("%s result %+v", cam, r)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s's window was not served", cam)
				}
			}

			inA <- frames[0]
			if row.holds {
				select {
				case <-outA:
					t.Fatal("cam-a was served before cam-b, which holds the fleet, got a frame")
				case <-time.After(100 * time.Millisecond):
				}
				inB <- frames[1]
				recv(outB, "cam-b")
			}
			recv(outA, "cam-a")
			close(inA)
			close(inB)
			for range outA {
			}
			for range outB {
			}
			wantMerge := 1
			if row.holds {
				wantMerge = 2
			}
			if st := srv.DispatchStats(); st.MaxMerge != wantMerge || st.Frames != wantMerge {
				t.Fatalf("dispatch stats %+v, want %d window(s) merged into one batch", st, wantMerge)
			}
		})
	}
}

// TestDispatchOptionValidation pins the fleet options' eager validation.
func TestDispatchOptionValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  Option
	}{
		{"zero label delay", WithLabelDelay(0)},
		{"negative label delay", WithLabelDelay(-5)},
	} {
		if _, err := New(c.opt); err == nil {
			t.Errorf("%s: New should reject the option", c.name)
		}
	}
	if _, err := New(WithDispatcher(true), WithTrainAsync(true), WithLabelDelay(100)); err != nil {
		t.Fatalf("valid fleet options rejected: %v", err)
	}
}

// TestWaitRecoveriesInlineNoop: with inline training, WaitRecoveries is an
// immediate no-op and PendingRecoveries stays 0.
func TestWaitRecoveriesInlineNoop(t *testing.T) {
	srv := sharedServer(t)
	if err := srv.WaitRecoveries(context.Background()); err != nil {
		t.Fatalf("inline WaitRecoveries: %v", err)
	}
	if srv.Stats().PendingRecoveries != 0 {
		t.Fatal("inline training reports pending recoveries")
	}
}

// TestQueryCountPushdownMatchesFullPath: the server-level COUNT plan over
// the built-in bindings uses the pushdown (no detection materialisation)
// and still counts exactly what the full path counts — and so does the
// Count fidelity, the other entry point into the same count execute.
func TestQueryCountPushdownMatchesFullPath(t *testing.T) {
	// Two identically seeded servers: the drift pipeline mutates cluster
	// state per query, so each path gets its own.
	mk := func() *Server {
		srv, err := New(fastServerOptions(43)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Bootstrap(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	for _, model := range []string{"odin", "yolo"} {
		countSQL := "SELECT COUNT(detections) FROM s USING MODEL " + model + " WHERE class='car'"
		fullSQL := "SELECT detections FROM s USING MODEL " + model + " WHERE class='car'"

		a := mk()
		framesA := a.GenerateFrames(DayData, 12)
		pq, err := a.PrepareSQL(countSQL)
		if err != nil {
			t.Fatal(err)
		}
		if explain := pq.Explain(); !strings.Contains(explain, "count-pushdown") {
			t.Fatalf("%s COUNT plan not pushed down: %s", model, explain)
		}
		got, err := pq.Execute(context.Background(), framesA)
		if err != nil {
			t.Fatal(err)
		}

		b := mk()
		framesB := b.GenerateFrames(DayData, 12)
		want, err := b.Query(context.Background(), fullSQL, framesB)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("%s: pushdown count %d, full path %d", model, got.Count, want.Count)
		}
		for i := range want.PerFrame {
			if got.PerFrame[i] != want.PerFrame[i] {
				t.Fatalf("%s frame %d: pushdown %d, full %d", model, i, got.PerFrame[i], want.PerFrame[i])
			}
		}
		if got.Detections != nil {
			t.Fatalf("%s: pushdown materialised detections", model)
		}
	}

	// Count fidelity: the same execute stage under the every-class,
	// no-floor spec, so Result.Count must equal the number of detections the
	// Lite fidelity — same cheapest single model — materialises.
	uniform := func(fid qos.Fidelity) []qos.Fidelity {
		fids := make([]qos.Fidelity, 12)
		for i := range fids {
			fids[i] = fid
		}
		return fids
	}
	run := func(fid qos.Fidelity) []Result {
		srv := mk()
		p, err := srv.pipe()
		if err != nil {
			t.Fatal(err)
		}
		return p.ProcessBatchFid(srv.GenerateFrames(DayData, 12), 2, uniform(fid))
	}
	counted, detected := run(qos.Count), run(qos.Lite)
	total := 0
	for i := range detected {
		if counted[i].Detections != nil {
			t.Fatalf("frame %d: count fidelity materialised detections", i)
		}
		if counted[i].Count != len(detected[i].Detections) {
			t.Fatalf("frame %d: count fidelity %d, detection path %d", i, counted[i].Count, len(detected[i].Detections))
		}
		total += counted[i].Count
	}
	if total == 0 {
		t.Fatal("count fidelity counted nothing; the comparison would be vacuous")
	}
}
