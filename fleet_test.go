package odin

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"odin/internal/qos"
)

// fleetSubsets gives each camera its own domain so the shared cluster set
// sees genuinely different concepts arriving interleaved.
var fleetSubsets = []Subset{NightData, DayData, SnowData}

// fleetFrames generates each stream's frame sequence up front, in stream
// order, so identically seeded servers produce identical frame sets
// regardless of how the streams are later driven.
func fleetFrames(srv *Server, streams, perStream int) [][]*Frame {
	out := make([][]*Frame, streams)
	for s := range out {
		out[s] = srv.GenerateFrames(fleetSubsets[s%len(fleetSubsets)], perStream)
	}
	return out
}

// withDispatchBounds overrides the dispatcher's flush threshold and linger
// so a test can hold windows in the assembler until the fleet is ready.
func withDispatchBounds(maxBatch int, linger time.Duration) Option {
	return func(c *config) error {
		c.dispatchMaxBatch = maxBatch
		c.dispatchLinger = linger
		return nil
	}
}

// TestDispatchedMatchesPerStream is the fleet determinism contract: with
// async training off, N streams routed through the dispatcher produce
// results bit-identical to per-stream Stream.Run sessions advancing the
// same frames in the same global order (round-robin by session join
// order), at every worker count. Run under -race in CI.
func TestDispatchedMatchesPerStream(t *testing.T) {
	const seed, streams, win, rounds = 17, 3, 8, 8
	const perStream = win * rounds

	// Reference: per-stream Run sessions on one shared server, driven in
	// lock-step — stream 0's window, stream 1's, stream 2's, next round —
	// which is exactly the merge order the dispatcher guarantees.
	ref, err := New(fastServerOptions(seed)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	frames := fleetFrames(ref, streams, perStream)
	ins := make([]chan *Frame, streams)
	outs := make([]<-chan StreamResult, streams)
	for s := 0; s < streams; s++ {
		st, err := ref.OpenStream(context.Background(), StreamOptions{
			Name: fmt.Sprintf("cam-%d", s), Workers: 2, MaxBatch: win,
		})
		if err != nil {
			t.Fatal(err)
		}
		ins[s] = make(chan *Frame)
		outs[s] = st.Run(context.Background(), ins[s])
	}
	want := make([][]string, streams)
	for r := 0; r < rounds; r++ {
		for s := 0; s < streams; s++ {
			for i := 0; i < win; i++ {
				ins[s] <- frames[s][r*win+i]
			}
			for i := 0; i < win; i++ {
				res, ok := <-outs[s]
				if !ok {
					t.Fatalf("stream %d ended early at round %d", s, r)
				}
				want[s] = append(want[s], res.Fingerprint())
			}
		}
	}
	for s := range ins {
		close(ins[s])
	}
	for s := range outs {
		for range outs[s] {
		}
	}
	wantStats := ref.Stats()
	if wantStats.DriftEvents == 0 {
		t.Fatal("fleet stream produced no drift events; the determinism test would be vacuous")
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, err := New(append(fastServerOptions(seed),
				WithDispatcher(true),
				withDispatchBounds(streams*win*rounds, time.Minute),
				WithWorkers(workers),
			)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Bootstrap(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			frames := fleetFrames(srv, streams, perStream)

			// Each input is full before its Run starts, so no window is cut
			// short by a producer descheduled mid-push. Runs start in stream
			// order (join order = merge order) behind a gate session that
			// submits nothing: until it leaves, cam-0 cannot flush alone.
			gate, err := srv.OpenStream(context.Background(), StreamOptions{Name: "gate"})
			if err != nil {
				t.Fatal(err)
			}
			gateIn := make(chan *Frame)
			gateOut := gate.Run(context.Background(), gateIn)
			douts := make([]<-chan StreamResult, streams)
			for s := 0; s < streams; s++ {
				st, err := srv.OpenStream(context.Background(), StreamOptions{
					Name: fmt.Sprintf("cam-%d", s), Workers: workers, MaxBatch: win,
				})
				if err != nil {
					t.Fatal(err)
				}
				din := make(chan *Frame, perStream)
				for _, f := range frames[s] {
					din <- f
				}
				close(din)
				douts[s] = st.Run(context.Background(), din)
			}
			close(gateIn)
			for range gateOut {
			}
			var wg sync.WaitGroup
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					n := 0
					for res := range douts[s] {
						if res.Seq != n {
							t.Errorf("stream %d: out-of-order seq %d at %d", s, res.Seq, n)
							return
						}
						if key := res.Fingerprint(); key != want[s][n] {
							t.Errorf("stream %d frame %d diverged from per-stream run:\n got %s\nwant %s",
								s, n, key, want[s][n])
							return
						}
						n++
					}
					if n != perStream {
						t.Errorf("stream %d delivered %d/%d results", s, n, perStream)
					}
				}(s)
			}
			wg.Wait()
			if stats := srv.Stats(); !reflect.DeepEqual(stats, wantStats) {
				t.Fatalf("stats diverged: got %+v want %+v", stats, wantStats)
			}
		})
	}
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
	if srv.PendingRecoveries() != 0 {
		t.Fatal("recoveries still pending after WaitRecoveries")
	}
	if srv.NumModels() == 0 {
		t.Fatal("no specialized model resident after recovery")
	}
	if srv.ModelGen() == 0 {
		t.Fatal("model generation never advanced")
	}
	res, err := st.Process(context.Background(), srv.GenerateFrames(DayData, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveryPending {
		t.Fatal("frame still flagged pending after convergence")
	}
	if res.ModelGen != srv.ModelGen() {
		t.Fatalf("frame generation %d, server generation %d", res.ModelGen, srv.ModelGen())
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

// TestDispatchCancelWithFramesInAssembler: cancelling a Run whose window
// sits in the dispatcher's assembler (the fleet is not ready — another
// joined camera is idle) withdraws the window: the session ends cleanly
// and the withdrawn frames are never advanced through the pipeline.
func TestDispatchCancelWithFramesInAssembler(t *testing.T) {
	srv, err := New(append(fastServerOptions(41),
		WithDispatcher(true),
		withDispatchBounds(1024, time.Minute),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	stA, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-a"})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam-b"})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	inA := make(chan *Frame, 4)
	outA := stA.Run(ctxA, inA)
	inB := make(chan *Frame)
	outB := stB.Run(context.Background(), inB) // joined but idle: blocks fleet-ready

	for _, f := range srv.GenerateFrames(DayData, 3) {
		inA <- f
	}
	// cam-a's window is now (or will shortly be) parked in the assembler;
	// cancel while it waits for the idle fleet.
	time.Sleep(20 * time.Millisecond)
	cancelA()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range outA {
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled session did not end; its window was not withdrawn")
	}
	if got := srv.Stats().Frames; got != 0 {
		t.Fatalf("withdrawn frames were advanced: server saw %d frames", got)
	}
	close(inB)
	for range outB {
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
	if srv.PendingRecoveries() != 0 {
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
