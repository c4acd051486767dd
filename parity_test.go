package odin

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// The determinism matrix (DESIGN.md §8): ODIN's answer for a frame — its
// ∆-band cluster, drift decision, selected ensemble and detections — must
// not depend on how the frame is served. Each row of parityRows serves a
// script one way and must equal its reference, so a new axis is a row.

// parityScript is night, day, then snow, perPhase frames each, rendered
// after Bootstrap by a server of seed. runFleet uses only the seed.
type parityScript struct {
	seed     uint64
	perPhase int
}

var (
	mainScript   = parityScript{seed: 11, perPhase: 60}
	secondScript = parityScript{seed: 17, perPhase: 40} // skipped under -short
	fleetScript  = parityScript{seed: 29}
)

// mid is mid second phase: a checkpoint there carries clusters, a
// specialized model, a partly filled temp window and the outlier ring.
func (sc parityScript) mid() int { return sc.perPhase + sc.perPhase/2 }

// parityRow is one cell of the matrix: its script from frame from on,
// served by cams cameras on a server restored from the script's sequential
// run as it stood before that frame, with opts and stream options so.
// Cameras sharing a server are dealt windows of so.MaxBatch, round-robin.
type parityRow struct {
	test, name string // entry point (without "Test") and subtest name
	script     parityScript
	from, cams int
	opts       []Option
	so         StreamOptions
	drive      func(t *testing.T, row *parityRow) *parityRun
	// ref is the key of the row this one must equal: "" is the script's
	// sequential run, noRef none. counts narrows the comparison to each
	// server's drift-event and cluster counts.
	ref    string
	counts bool
	check  func(t *testing.T, run *parityRun) // the row's own guard
	long   bool                               // skipped under -short
}

const noRef = "-"

func (r *parityRow) key() string { return r.test + "/" + r.name }

var (
	fullScript = WithAdaptiveFidelity(AdaptiveFidelity{Script: []int{0}})
	degrading  = WithAdaptiveFidelity(AdaptiveFidelity{Script: []int{0, 1, 2, 3, 2, 1, 0}})
	obsOn      = WithObservability(true)
)

var parityRows = []parityRow{
	{test: "RunMatchesSequentialProcess", name: "workers=1", script: mainScript, cams: 1, so: StreamOptions{Workers: 1}, drive: runSingle},
	{test: "RunMatchesSequentialProcess", name: "workers=4", script: mainScript, cams: 1, so: StreamOptions{Workers: 4}, drive: runSingle},
	{test: "RunMatchesSequentialProcess", name: "workers=8", script: mainScript, cams: 1, so: StreamOptions{Workers: 8}, drive: runSingle},
	{test: "BackendDeterminismAcrossWorkers/float64", name: "workers=1", script: secondScript, cams: 1, so: StreamOptions{Workers: 1}, drive: runSingle, long: true},
	{test: "BackendDeterminismAcrossWorkers/float64", name: "workers=4", script: secondScript, cams: 1, so: StreamOptions{Workers: 4}, drive: runSingle, long: true},
	{test: "BackendDeterminismAcrossWorkers/float64", name: "workers=8", script: secondScript, cams: 1, so: StreamOptions{Workers: 8}, drive: runSingle, long: true},
	{test: "CheckpointRestoreBitIdentical", name: "sequential", script: mainScript, from: mainScript.mid(), cams: 1, drive: runProcess},
	{test: "CheckpointRestoreBitIdentical", name: "workers=1", script: mainScript, from: mainScript.mid(), cams: 1, so: StreamOptions{Workers: 1}, drive: runSingle},
	{test: "CheckpointRestoreBitIdentical", name: "workers=4", script: mainScript, from: mainScript.mid(), cams: 1, so: StreamOptions{Workers: 4}, drive: runSingle},
	{test: "CheckpointRestoreBitIdentical", name: "workers=8", script: mainScript, from: mainScript.mid(), cams: 1, so: StreamOptions{Workers: 8}, drive: runSingle},
	{test: "QoSAtCapacityBitIdentical", name: "workers=1", script: mainScript, cams: 1, opts: []Option{WithMaxQueue(8), fullScript}, so: StreamOptions{MaxBatch: 10, Workers: 1}, drive: runSingle},
	{test: "QoSAtCapacityBitIdentical", name: "workers=4", script: mainScript, cams: 1, opts: []Option{WithMaxQueue(8), fullScript}, so: StreamOptions{MaxBatch: 10, Workers: 4}, drive: runSingle},
	{test: "QoSAtCapacityBitIdentical", name: "workers=8", script: mainScript, cams: 1, opts: []Option{WithMaxQueue(8), fullScript}, so: StreamOptions{MaxBatch: 10, Workers: 8}, drive: runSingle},
	{test: "QoSAtCapacityBitIdentical", name: "dispatched", script: mainScript, cams: 1, opts: []Option{WithMaxQueue(8), fullScript, WithDispatcher(true)}, so: StreamOptions{MaxBatch: 10, Workers: 4}, drive: runSingle},
	{test: "QoSAtCapacityBitIdentical", name: "dispatched+obs", script: mainScript, cams: 1, opts: []Option{WithMaxQueue(8), fullScript, WithDispatcher(true), obsOn, WithWorkers(4)}, so: StreamOptions{MaxBatch: 10, Workers: 4}, drive: runSingle},
	{test: "QoSScriptedReplayDeterministic", name: "workers=1", script: mainScript, cams: 1, opts: []Option{WithMaxQueue(16), degrading}, so: StreamOptions{MaxBatch: 10, Workers: 1}, drive: runSingle, ref: noRef, check: everyFidelity},
	{test: "QoSScriptedReplayDeterministic", name: "workers=4", script: mainScript, cams: 1, opts: []Option{WithMaxQueue(16), degrading}, so: StreamOptions{MaxBatch: 10, Workers: 4}, drive: runSingle, ref: "QoSScriptedReplayDeterministic/workers=1"},
	{test: "QoSScriptedReplayDeterministic", name: "workers=8", script: mainScript, cams: 1, opts: []Option{WithMaxQueue(16), degrading}, so: StreamOptions{MaxBatch: 10, Workers: 8}, drive: runSingle, ref: "QoSScriptedReplayDeterministic/workers=1"},
	{test: "ObsFingerprintParityWorkers", name: "workers=1", script: mainScript, cams: 1, opts: []Option{obsOn}, so: StreamOptions{MaxBatch: 16, Workers: 1}, drive: runSingle},
	{test: "ObsFingerprintParityWorkers", name: "workers=4", script: mainScript, cams: 1, opts: []Option{obsOn}, so: StreamOptions{MaxBatch: 16, Workers: 4}, drive: runSingle},
	{test: "ObsFingerprintParityWorkers", name: "workers=8", script: mainScript, cams: 1, opts: []Option{obsOn}, so: StreamOptions{MaxBatch: 16, Workers: 8}, drive: runSingle},
	{test: "DispatchedMatchesPerStream", name: "per-stream", script: mainScript, cams: 3, so: StreamOptions{MaxBatch: 10, Workers: 2}, drive: runLockstep},
	{test: "DispatchedMatchesPerStream", name: "workers=1", script: mainScript, cams: 3, opts: []Option{WithDispatcher(true), WithWorkers(1)}, so: StreamOptions{MaxBatch: 10, Workers: 1}, drive: runLockstep},
	{test: "DispatchedMatchesPerStream", name: "workers=4", script: mainScript, cams: 3, opts: []Option{WithDispatcher(true), WithWorkers(4)}, so: StreamOptions{MaxBatch: 10, Workers: 4}, drive: runLockstep},
	{test: "DispatchedMatchesPerStream", name: "workers=8", script: mainScript, cams: 3, opts: []Option{WithDispatcher(true), WithWorkers(8)}, so: StreamOptions{MaxBatch: 10, Workers: 8}, drive: runLockstep},
	{test: "FleetRegistryParity", name: "registry-off", script: fleetScript, cams: 2, so: StreamOptions{MaxBatch: 20, Workers: 1}, drive: runFleet(false), ref: noRef},
	{test: "FleetRegistryParity", name: "registry-on", script: fleetScript, cams: 2, so: StreamOptions{MaxBatch: 20, Workers: 1}, drive: runFleet(true), ref: "FleetRegistryParity/registry-off", counts: true},
	{test: "FleetRegistryParity", name: "registry-on-4-workers", script: fleetScript, cams: 2, so: StreamOptions{MaxBatch: 20, Workers: 4}, drive: runFleet(true), ref: "FleetRegistryParity/registry-on", long: true},
}

func TestRunMatchesSequentialProcess(t *testing.T) { runParity(t, "RunMatchesSequentialProcess") }

// "float64" names the precision everything computes in.
func TestBackendDeterminismAcrossWorkers(t *testing.T) {
	t.Run("float64", func(t *testing.T) { runParity(t, "BackendDeterminismAcrossWorkers/float64") })
}

func TestCheckpointRestoreBitIdentical(t *testing.T)  { runParity(t, "CheckpointRestoreBitIdentical") }
func TestQoSAtCapacityBitIdentical(t *testing.T)      { runParity(t, "QoSAtCapacityBitIdentical") }
func TestQoSScriptedReplayDeterministic(t *testing.T) { runParity(t, "QoSScriptedReplayDeterministic") }
func TestObsFingerprintParityWorkers(t *testing.T)    { runParity(t, "ObsFingerprintParityWorkers") }
func TestDispatchedMatchesPerStream(t *testing.T)     { runParity(t, "DispatchedMatchesPerStream") }
func TestFleetRegistryParity(t *testing.T)            { runParity(t, "FleetRegistryParity") }

// runParity runs test's rows as parallel subtests: serving is mostly
// serial, so two rows at once roughly halve the wall time.
func runParity(t *testing.T, test string) {
	for i := range parityRows {
		row := &parityRows[i]
		if row.test != test {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			if row.long && testing.Short() {
				t.Skip("repeats a determinism check on a second seed or worker count")
			}
			got := row.serve(t)
			var want *parityRun
			switch row.ref {
			case noRef:
			case "":
				want = sequential(t, row.script).as(row)
			default:
				want = parityRows[slices.IndexFunc(parityRows, func(r parityRow) bool { return r.key() == row.ref })].serve(t)
			}
			compareRuns(t, got, want, row.counts)
			if row.check != nil {
				row.check(t, got)
			}
		})
	}
}

// serve runs the row afresh, so -count repeats it — unless another row
// compares against it: a reference runs once per test binary.
func (r *parityRow) serve(t *testing.T) *parityRun {
	if !slices.ContainsFunc(parityRows, func(o parityRow) bool { return o.ref == r.key() }) {
		return r.drive(t, r)
	}
	return memo(t, r.key(), func() *parityRun { return r.drive(t, r) })
}

var parityMemo sync.Map // key → *parityOnce

type parityOnce struct {
	once sync.Once
	run  *parityRun
}

func memo(t *testing.T, key string, serve func() *parityRun) *parityRun {
	v, _ := parityMemo.LoadOrStore(key, new(parityOnce))
	p := v.(*parityOnce)
	p.once.Do(func() { p.run = serve() })
	if p.run == nil {
		t.Fatalf("%s failed when it was first served", key)
	}
	return p.run
}

// parityRun is what a row served: per camera, the frames fed and results
// received in order; per server, its Stats and cluster count.
type parityRun struct {
	frames   [][]*Frame
	results  [][]StreamResult
	stats    []Stats
	clusters []int
	ckpts    map[int][]byte // a sequential run's checkpoints, by the frame they precede
}

func newParityRun(frames [][]*Frame, results [][]StreamResult, srvs ...*Server) *parityRun {
	run := &parityRun{frames: frames, results: results}
	for _, srv := range srvs {
		run.stats = append(run.stats, srv.Stats())
		run.clusters = append(run.clusters, srv.NumClusters())
	}
	return run
}

// compareRuns checks that each frame got one result, in order, carrying
// its frame, none dropped; and against want, the same drift-event and
// cluster counts per server and, unless counts, the same Stats and the
// same Seq and fingerprint per result.
func compareRuns(t *testing.T, got, want *parityRun, counts bool) {
	t.Helper()
	for c, rs := range got.results {
		if len(rs) != len(got.frames[c]) {
			t.Fatalf("camera %d: %d results for %d frames", c, len(rs), len(got.frames[c]))
		}
		for i, r := range rs {
			if r.Dropped || r.Frame != got.frames[c][i] {
				t.Fatalf("camera %d: result %d dropped or carrying the wrong frame", c, i)
			}
		}
	}
	if want == nil {
		return
	}
	for s, w := range want.stats {
		if g := got.stats[s]; g.DriftEvents != w.DriftEvents || got.clusters[s] != want.clusters[s] || !counts && g != w {
			t.Fatalf("server %d: stats %+v, %d clusters; want %+v, %d", s, g, got.clusters[s], w, want.clusters[s])
		}
	}
	if counts {
		return
	}
	for c, ws := range want.results {
		if len(got.results[c]) != len(ws) {
			t.Fatalf("camera %d: %d results, want %d", c, len(got.results[c]), len(ws))
		}
		for i, w := range ws {
			if g := got.results[c][i]; g.Seq != w.Seq || g.Fingerprint() != w.Fingerprint() {
				t.Fatalf("camera %d: result %d diverged:\n got seq %d %s\nwant seq %d %s",
					c, i, g.Seq, g.Fingerprint(), w.Seq, w.Fingerprint())
			}
		}
	}
}

func everyFidelity(t *testing.T, run *parityRun) {
	seen := map[Fidelity]int{}
	for _, r := range run.results[0] {
		seen[r.Fidelity]++
	}
	if len(seen) != 4 { // Full, Lite, Count and Skip
		t.Fatalf("script did not exercise every fidelity: %v", seen)
	}
}

// sequential is a script's reference, run once per test binary: every
// frame through Stream.Process on a fresh server, checkpointed before the
// first frame and at mid(). It fails if the script raises no drift event,
// which would make every row against it vacuous.
func sequential(t *testing.T, sc parityScript) *parityRun {
	return memo(t, fmt.Sprintf("sequential/%+v", sc), func() *parityRun {
		srv := qosServer(t, sc.seed)
		frames := driftStream(srv, sc.perPhase)
		ckpts := map[int][]byte{}
		rs := processAll(t, srv, frames, func(i int) {
			if i == 0 || i == sc.mid() {
				var b bytes.Buffer
				if err := srv.Checkpoint(&b); err != nil {
					t.Fatal(err)
				}
				ckpts[i] = b.Bytes()
			}
		})
		run := newParityRun([][]*Frame{frames}, [][]StreamResult{rs}, srv)
		run.ckpts = ckpts
		if run.stats[0].DriftEvents == 0 {
			t.Fatalf("script %+v raised no drift event", sc)
		}
		return run
	})
}

// as is the sequential run as row must have served it: from the row's
// first frame, dealt among its cameras, Seq counted per camera.
func (r *parityRun) as(row *parityRow) *parityRun {
	out, win := *r, max(row.so.MaxBatch, 1)
	out.frames = deal(r.frames[0][row.from:], row.cams, win)
	out.results = deal(r.results[0][row.from:], row.cams, win)
	for _, rs := range out.results {
		for i := range rs {
			rs[i].Seq = i
		}
	}
	return &out
}

// deal splits xs among cams cameras in windows of win, round-robin.
func deal[T any](xs []T, cams, win int) [][]T {
	out := make([][]T, cams)
	for i, x := range xs {
		out[i/win%cams] = append(out[i/win%cams], x)
	}
	return out
}

// rowServer restores the row's checkpoint of its script's reference with
// the row's options, and returns it with the reference's frames it serves:
// rows differ only in how they serve.
func rowServer(t *testing.T, row *parityRow) (*Server, []*Frame) {
	ref := sequential(t, row.script)
	srv, err := Restore(bytes.NewReader(ref.ckpts[row.from]), append(fastServerOptions(row.script.seed), row.opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ref.frames[0][row.from:]
}

// processAll serves frames through Stream.Process in order, calling
// before(i), if set, ahead of frame i.
func processAll(t *testing.T, srv *Server, frames []*Frame, before func(i int)) []StreamResult {
	st, err := srv.OpenStream(context.Background(), StreamOptions{Name: "seq"})
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]StreamResult, len(frames))
	for i, f := range frames {
		if before != nil {
			before(i)
		}
		r, err := st.Process(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = StreamResult{Seq: i, Frame: f, Result: r}
	}
	return rs
}

// runProcess serves the frames one Stream.Process call at a time.
func runProcess(t *testing.T, row *parityRow) *parityRun {
	srv, frames := rowServer(t, row)
	return newParityRun([][]*Frame{frames}, [][]StreamResult{processAll(t, srv, frames, nil)}, srv)
}

// runSingle serves the frames as one Run session, fed a frame at a time so
// window sizes vary with timing.
func runSingle(t *testing.T, row *parityRow) *parityRun {
	srv, frames := rowServer(t, row)
	in := make(chan *Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f
		}
	}()
	return newParityRun([][]*Frame{frames}, [][]StreamResult{session(t, srv, row.so, in)}, srv)
}

// session serves in as one Run session and returns every result.
func session(t *testing.T, srv *Server, so StreamOptions, in <-chan *Frame) []StreamResult {
	st, err := srv.OpenStream(context.Background(), so)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var rs []StreamResult
	for r := range st.Run(context.Background(), in) {
		rs = append(rs, r)
	}
	return rs
}

// runLockstep serves the frames as cams sessions on one server, windows
// advancing in round-robin order: enforced here per stream, and
// by the dispatcher's merge order on a server that has one.
func runLockstep(t *testing.T, row *parityRow) *parityRun {
	srv, script := rowServer(t, row)
	win := row.so.MaxBatch
	frames := deal(script, row.cams, win)
	run := func(name string, in <-chan *Frame) <-chan StreamResult {
		so := row.so
		so.Name = name
		st, err := srv.OpenStream(context.Background(), so)
		if err != nil {
			t.Fatal(err)
		}
		return st.Run(context.Background(), in)
	}
	outs := make([]<-chan StreamResult, row.cams)
	results := make([][]StreamResult, row.cams)
	if srv.cfg.dispatcher {
		// The held dispatcher flushes only when every camera has a window.
		// Each input is full before its Run starts, so no window is cut
		// short by a producer descheduled mid-push. Runs join in camera
		// order (join order = merge order) behind a gate session that
		// submits nothing: until it leaves, cam-0 cannot flush alone.
		holdDispatch(srv)
		gate := make(chan *Frame)
		gateOut := run("gate", gate)
		for c := range outs {
			outs[c] = run(fmt.Sprint("cam-", c), feedAll(frames[c]))
		}
		close(gate)
		for range gateOut {
		}
	} else {
		// A camera's window goes in and its results come out before the
		// next camera's window goes in.
		ins := make([]chan *Frame, row.cams)
		for c := range ins {
			ins[c] = make(chan *Frame)
			outs[c] = run(fmt.Sprint("cam-", c), ins[c])
		}
		for lo := 0; lo < len(frames[0]); lo += win {
			for c, in := range ins {
				window := frames[c][lo:min(lo+win, len(frames[c]))]
				for _, f := range window {
					in <- f
				}
				for range window {
					results[c] = append(results[c], <-outs[c])
				}
			}
		}
		for _, in := range ins {
			close(in)
		}
	}
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range outs[c] {
				results[c] = append(results[c], r)
			}
		}()
	}
	wg.Wait()
	if srv.cfg.dispatcher {
		// One merged batch a join-order round, a window from each camera
		// still fed: a round split in two, or a window flushed on its
		// own, shows here even when the fingerprints agree.
		if got, want := srv.DispatchStats().Batches, (len(frames[0])+win-1)/win; got != want {
			t.Fatalf("dispatcher issued %d merged batches, want %d: one per round", got, want)
		}
	}
	return newParityRun(frames, results, srv)
}

// runFleet serves cams async servers sharing a night-bootstrapped
// substrate, each camera its own night→day frames, in windows of
// so.MaxBatch — a Run session per window, round-robin — landing every
// recovery before the next round so model swaps hit window boundaries.
// Every camera must drift. With registry the servers share one
// ModelRegistry, which must serve at least one reuse; without it each
// trains on its own.
func runFleet(registry bool) func(t *testing.T, row *parityRow) *parityRun {
	return func(t *testing.T, row *parityRow) *parityRun {
		win, reg := row.so.MaxBatch, NewModelRegistry(8)
		srvs := make([]*Server, row.cams)
		for c := range srvs {
			opt := WithTrainAsync(true)
			if registry {
				opt = WithFleetRecovery(FleetRecovery{Registry: reg, Source: fmt.Sprint("cam", c)})
			}
			srv, err := New(append(fastServerOptions(row.script.seed), opt)...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			srvs[c] = srv
		}
		boot := srvs[0].GenerateFrames(NightData, 80)
		frames := make([][]*Frame, len(srvs))
		for c, srv := range srvs {
			if err := srv.Bootstrap(context.Background(), boot); err != nil {
				t.Fatal(err)
			}
			frames[c] = append(srvs[0].GenerateFrames(NightData, 2*win), srvs[0].GenerateFrames(DayData, 8*win)...)
		}
		results := make([][]StreamResult, len(srvs))
		for lo := 0; lo < len(frames[0]); lo += win {
			for c, srv := range srvs {
				results[c] = append(results[c], session(t, srv, row.so, feedAll(frames[c][lo:lo+win]))...)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			for _, srv := range srvs {
				if err := srv.WaitRecoveries(ctx); err != nil {
					t.Fatalf("recoveries did not converge: %v", err)
				}
			}
			cancel()
		}
		run := newParityRun(frames, results, srvs...)
		if rst := reg.Stats(); registry && rst.AdoptHits+rst.Coalesced == 0 {
			t.Fatalf("no camera reused a recovery; the parity check is vacuous: %+v", rst)
		}
		for c, st := range run.stats {
			if st.DriftEvents == 0 {
				t.Fatalf("camera %d saw no drift; the parity check is vacuous", c)
			}
		}
		return run
	}
}
