package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"odin"
	"odin/internal/exp"
	"odin/internal/obs"
)

// The overload benchmark measures the QoS subsystem end to end: four
// cameras with mixed frame rates offer ~4x the server's calibrated
// service capacity in bursts, through bounded admission queues (Block
// policy), and the bench compares two arms on identical frame sequences:
//
//   - adaptive OFF: full fidelity always. The backlog grows for the whole
//     burst, so open-loop latency (result time minus the frame's
//     *scheduled* offer time — coordinated omission corrected) climbs to
//     seconds.
//   - adaptive ON: the per-stream hysteresis controller degrades fidelity
//     (lite model → count pushdown → subsampled counts) until service
//     matches the offered rate, then restores as the burst subsides.
//
// The gates, asserted after the JSON lands on disk:
//
//  1. Worst per-camera p99 with adaptation is at most 1/3 of the worst
//     per-camera p99 without it.
//  2. Zero silent frame loss: every offered frame yields exactly one
//     result in both arms, and a dedicated drop-oldest scenario checks
//     offered == delivered + drop markers == the stream's and server's
//     drop counters.
//  3. The controller actually moved: >=1 degrade and >=1 restore, and
//     every camera ends the run back at full fidelity.
//  4. At capacity (all-zero fidelity script, no load shedding), the QoS
//     path is bit-identical to a server without QoS at 1/4/8 workers.
//  5. Replaying the live run's admission decisions as a fidelity script
//     is deterministic: two replays at different worker counts produce
//     identical fingerprints.

// overloadMult is the sustained offered load as a multiple of the
// calibrated full-fidelity service rate.
const overloadMult = 4.0

// camShares is each camera's share of the offered load (multi-rate), and
// camWeights the matching dispatcher flush weights.
var (
	camShares  = []float64{0.4, 0.3, 0.2, 0.1}
	camWeights = []int{4, 3, 2, 1}
)

// overloadBenchResult is the JSON document written to -overloadout.
type overloadBenchResult struct {
	Scale           string            `json:"scale"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	ServiceFPS      float64           `json:"calibrated_service_fps"`
	OfferedMultiple float64           `json:"offered_multiple"`
	QueueBound      int               `json:"queue_bound"`
	Cameras         []overloadCam     `json:"cameras"`
	WorstOffP99Ms   float64           `json:"worst_p99_adaptive_off_ms"`
	WorstOnP99Ms    float64           `json:"worst_p99_adaptive_on_ms"`
	P99Improvement  float64           `json:"p99_improvement"` // off/on
	Transitions     int               `json:"fidelity_transitions"`
	FidelityOn      map[string]int    `json:"adaptive_on_fidelity_frames"`
	DropLedger      overloadDropStats `json:"drop_ledger"`
	IdentityWorkers []int             `json:"bit_identical_workers"`
	ReplayWindows   int               `json:"replay_script_windows"`
	ReplayIdentical bool              `json:"replay_identical"`
}

// overloadCam is one camera's offered load and per-arm latency tail.
type overloadCam struct {
	Cam         int     `json:"cam"`
	Share       float64 `json:"share"`
	Weight      int     `json:"weight"`
	Offered     int     `json:"offered"`
	OffP99Ms    float64 `json:"adaptive_off_p99_ms"`
	OffMaxMs    float64 `json:"adaptive_off_max_ms"`
	OnP99Ms     float64 `json:"adaptive_on_p99_ms"`
	OnMaxMs     float64 `json:"adaptive_on_max_ms"`
	OnDegraded  int     `json:"adaptive_on_degraded_frames"`
	Transitions int     `json:"adaptive_on_transitions"`
}

// overloadDropStats is the drop-oldest ledger scenario: every counter
// must agree or frames were lost silently.
type overloadDropStats struct {
	Policy        string `json:"policy"`
	Offered       int    `json:"offered"`
	Delivered     int    `json:"delivered"`
	Markers       int    `json:"drop_markers"`
	StreamDropped uint64 `json:"stream_dropped"`
	ServerDropped int    `json:"server_dropped"`
}

type overloadParams struct {
	bootFrames, bootEpochs, baselineEpochs int
	calibFrames                            int // per camera, calibration run
	burstFrames                            int // total across cameras, bursty phase
	tailFrames                             int // per camera, under-capacity cool-down
	queue                                  int // admission bound per stream
	identFrames                            int // bit-identity arm stream length
	maxBatch                               int
}

func overloadParamsFor(scale exp.Scale) overloadParams {
	if scale == exp.Full {
		return overloadParams{
			bootFrames: 600, bootEpochs: 8, baselineEpochs: 40,
			calibFrames: 480, burstFrames: 12000, tailFrames: 192,
			queue: 32, identFrames: 120, maxBatch: 8,
		}
	}
	return overloadParams{
		bootFrames: 150, bootEpochs: 2, baselineEpochs: 6,
		calibFrames: 192, burstFrames: 3600, tailFrames: 128,
		queue: 32, identFrames: 90, maxBatch: 8,
	}
}

// newOverloadServer builds one bootstrapped server on the default
// (FullData) bootstrap set.
func newOverloadServer(p overloadParams, extra ...odin.Option) (*odin.Server, error) {
	opts := append([]odin.Option{
		odin.WithSeed(73),
		odin.WithBootstrapFrames(p.bootFrames),
		odin.WithBootstrapEpochs(p.bootEpochs),
		odin.WithBaselineEpochs(p.baselineEpochs),
	}, extra...)
	srv, err := odin.New(opts...)
	if err != nil {
		return nil, err
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		return nil, err
	}
	return srv, nil
}

// genCamFrames generates every camera's frame sequence in a fixed order,
// so two servers with the same seed produce bit-identical fleets.
func genCamFrames(srv *odin.Server, p overloadParams) [][]*odin.Frame {
	out := make([][]*odin.Frame, len(camShares))
	for c, share := range camShares {
		n := int(share*float64(p.burstFrames)+0.5) + p.tailFrames
		out[c] = srv.GenerateFrames(odin.FullData, n)
	}
	return out
}

// overloadArmOptions are the serving options shared by the calibration
// run and both measured arms: async training with labels delayed beyond
// the stream, so drift recoveries (if any) neither stall serving nor
// differ between arms.
func overloadArmOptions() []odin.Option {
	return []odin.Option{odin.WithTrainAsync(true), odin.WithLabelDelay(1 << 20)}
}

// calibrateService measures the fleet's full-fidelity service rate
// (frames/sec aggregate) with the same topology the arms use: four
// concurrent streams, no pacing, no admission queue.
func calibrateService(p overloadParams) (float64, error) {
	srv, err := newOverloadServer(p, overloadArmOptions()...)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, len(camShares))
	rates := make([]float64, len(camShares))
	for c := range camShares {
		frames := srv.GenerateFrames(odin.FullData, p.calibFrames)
		st, err := srv.OpenStream(context.Background(), odin.StreamOptions{
			Name: fmt.Sprintf("calib-%d", c), MaxBatch: p.maxBatch, Workers: 2,
		})
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func(c int, st *odin.Stream, frames []*odin.Frame) {
			defer wg.Done()
			in := make(chan *odin.Frame, len(frames))
			for _, f := range frames {
				in <- f
			}
			close(in)
			// Time first result -> last result so stream-open and
			// pipeline warmup don't deflate the measured rate; an
			// underestimate here silently turns the "4x" offered
			// load into barely-over-capacity.
			n := 0
			var first, last time.Time
			for range st.Run(context.Background(), in) {
				if n == 0 {
					first = time.Now()
				}
				last = time.Now()
				n++
			}
			if n != len(frames) {
				errs <- fmt.Errorf("calibration delivered %d/%d results", n, len(frames))
				return
			}
			if n < 2 || !last.After(first) {
				errs <- fmt.Errorf("calibration stream %d too short to time", c)
				return
			}
			rates[c] = float64(n-1) / last.Sub(first).Seconds()
		}(c, st, frames)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return total, nil
}

// armCamStats is one camera's measured outcome in one arm.
type armCamStats struct {
	offered     int
	latMs       []float64 // sorted
	dropped     int
	degraded    int
	transitions int
	finalLevel  int
	fids        []odin.Fidelity // per delivered result, in seq order
}

// runOverloadArm drives the four-camera bursty schedule against one
// fresh server and returns per-camera open-loop latencies. Each camera's
// feeder follows an absolute schedule (hot 20-frame bursts at 2x its
// rate, lulls at 2/3, phase-shifted per camera) and latency is measured
// from the frame's scheduled time, so admission backpressure counts
// against the server — the open-loop view a real camera has.
func runOverloadArm(p overloadParams, serviceFPS float64, adaptive bool) ([]armCamStats, map[string]int, error) {
	extra := append(overloadArmOptions(), odin.WithMaxQueue(p.queue))
	if adaptive {
		extra = append(extra, odin.WithAdaptiveFidelity(odin.AdaptiveFidelity{}))
	}
	srv, err := newOverloadServer(p, extra...)
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	camFrames := genCamFrames(srv, p)

	stats := make([]armCamStats, len(camFrames))
	streams := make([]*odin.Stream, len(camFrames))
	var wg sync.WaitGroup
	errs := make(chan error, len(camFrames))
	for c := range camFrames {
		frames := camFrames[c]
		st, err := srv.OpenStream(context.Background(), odin.StreamOptions{
			Name:     fmt.Sprintf("cam-%d", c),
			MaxBatch: p.maxBatch, Workers: 2, Buffer: 2 * p.queue,
			Weight: camWeights[c],
		})
		if err != nil {
			return nil, nil, err
		}
		streams[c] = st
		stats[c].offered = len(frames)

		pos := make(map[int]int, len(frames))
		for k, f := range frames {
			pos[f.Index] = k
		}
		sched := make([]time.Time, len(frames))
		in := make(chan *odin.Frame, 1)
		out := st.Run(context.Background(), in)

		baseGap := time.Duration(float64(time.Second) / (overloadMult * camShares[c] * serviceFPS))
		tailGap := time.Duration(float64(time.Second) * 16 / serviceFPS)
		burstN := len(frames) - p.tailFrames

		wg.Add(1)
		go func(c int) { // feeder: absolute schedule, blocks on admission
			defer wg.Done()
			defer close(in)
			next := time.Now()
			for k, f := range frames {
				gap := tailGap
				if k < burstN {
					if ((k/20)+c)%2 == 0 {
						gap = baseGap / 2
					} else {
						gap = baseGap * 3 / 2
					}
				}
				next = next.Add(gap)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				sched[k] = next
				in <- f
			}
		}(c)

		wg.Add(1)
		go func(c int) { // consumer
			defer wg.Done()
			s := &stats[c]
			for r := range out {
				now := time.Now()
				if r.Dropped {
					s.dropped++
					continue
				}
				k, ok := pos[r.Frame.Index]
				if !ok {
					errs <- fmt.Errorf("cam %d: result for unknown frame %d", c, r.Frame.Index)
					return
				}
				s.latMs = append(s.latMs, float64(now.Sub(sched[k]).Microseconds())/1000)
				s.fids = append(s.fids, r.Fidelity)
				if r.Fidelity.Degraded() {
					s.degraded++
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, nil, err
	default:
	}

	fidCount := map[string]int{}
	for c := range stats {
		q := streams[c].QoS()
		stats[c].transitions = q.Transitions
		stats[c].finalLevel = q.Level
		for _, f := range stats[c].fids {
			fidCount[f.String()]++
		}
		sort.Float64s(stats[c].latMs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := srv.WaitRecoveries(ctx); err != nil {
		return nil, nil, fmt.Errorf("overload bench: recoveries did not converge: %w", err)
	}
	return stats, fidCount, nil
}

// runDropLedger checks the zero-silent-loss ledger under active
// shedding: a drop-oldest queue with a stalled consumer must account for
// every offered frame as either a delivered result or a drop marker, and
// the marker count must match the stream's and the server's counters.
func runDropLedger(p overloadParams) (overloadDropStats, error) {
	d := overloadDropStats{Policy: "drop-oldest", Offered: 160}
	srv, err := newOverloadServer(p, odin.WithMaxQueue(8), odin.WithDropPolicy(odin.DropOldest))
	if err != nil {
		return d, err
	}
	defer srv.Close()
	frames := srv.GenerateFrames(odin.FullData, d.Offered)
	st, err := srv.OpenStream(context.Background(), odin.StreamOptions{MaxBatch: 4, Buffer: 1})
	if err != nil {
		return d, err
	}
	in := make(chan *odin.Frame, len(frames))
	for _, f := range frames {
		in <- f
	}
	close(in)
	results := 0
	for r := range st.Run(context.Background(), in) {
		results++
		if r.Dropped {
			d.Markers++
		} else {
			d.Delivered++
		}
		time.Sleep(time.Millisecond) // stall so the queue sheds
	}
	d.StreamDropped = st.QoS().Dropped
	d.ServerDropped = srv.Stats().Dropped
	if results != d.Offered {
		return d, fmt.Errorf("overload bench: drop ledger broken: %d results for %d offered frames", results, d.Offered)
	}
	if d.Markers == 0 {
		return d, fmt.Errorf("overload bench: drop scenario shed nothing; the ledger check is vacuous")
	}
	if uint64(d.Markers) != d.StreamDropped || d.Markers != d.ServerDropped {
		return d, fmt.Errorf("overload bench: drop counters disagree: %d markers, stream %d, server %d",
			d.Markers, d.StreamDropped, d.ServerDropped)
	}
	return d, nil
}

// collectFingerprints runs frames through one stream and returns every
// result's fingerprint in sequence order.
func collectFingerprints(srv *odin.Server, frames []*odin.Frame, o odin.StreamOptions) ([]string, error) {
	st, err := srv.OpenStream(context.Background(), o)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	in := make(chan *odin.Frame, len(frames))
	for _, f := range frames {
		in <- f
	}
	close(in)
	var fps []string
	for r := range st.Run(context.Background(), in) {
		if r.Dropped {
			return nil, fmt.Errorf("unexpected drop marker at seq %d", r.Seq)
		}
		fps = append(fps, r.Fingerprint())
	}
	return fps, nil
}

// runIdentity asserts the determinism contract's first half: a QoS
// server pinned at full fidelity (all-zero script, blocking admission)
// is bit-identical to a server without QoS, at 1, 4 and 8 workers.
func runIdentity(p overloadParams) ([]int, error) {
	base, err := newOverloadServer(p)
	if err != nil {
		return nil, err
	}
	want, err := collectFingerprints(base, base.GenerateFrames(odin.NightData, p.identFrames),
		odin.StreamOptions{MaxBatch: 10, Workers: 1})
	base.Close()
	if err != nil {
		return nil, err
	}
	workers := []int{1, 4, 8}
	for _, w := range workers {
		srv, err := newOverloadServer(p, odin.WithMaxQueue(8),
			odin.WithAdaptiveFidelity(odin.AdaptiveFidelity{Script: []int{0}}))
		if err != nil {
			return nil, err
		}
		got, err := collectFingerprints(srv, srv.GenerateFrames(odin.NightData, p.identFrames),
			odin.StreamOptions{MaxBatch: 10, Workers: w})
		srv.Close()
		if err != nil {
			return nil, err
		}
		if len(got) != len(want) {
			return nil, fmt.Errorf("overload bench: identity arm workers=%d: %d results, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("overload bench: QoS at capacity diverged from non-QoS at workers=%d, frame %d:\n got %s\nwant %s",
					w, i, got[i], want[i])
			}
		}
	}
	return workers, nil
}

// deriveScript reduces a live run's per-result fidelities to a fidelity
// script over logical MaxBatch windows: a window containing any Skip
// frame replays at level 3 (subsampled counts); otherwise it replays at
// the deepest fidelity the window saw.
func deriveScript(fids []odin.Fidelity, maxBatch int) []int {
	if len(fids) == 0 {
		return []int{0}
	}
	script := make([]int, (len(fids)+maxBatch-1)/maxBatch)
	for w := range script {
		lvl := 0
		for i := w * maxBatch; i < (w+1)*maxBatch && i < len(fids); i++ {
			switch fids[i] {
			case odin.FidelitySkip:
				lvl = 3
			case odin.FidelityCount:
				if lvl < 2 {
					lvl = 2
				}
			case odin.FidelityLite:
				if lvl < 1 {
					lvl = 1
				}
			}
		}
		script[w] = lvl
	}
	return script
}

// runReplay asserts the determinism contract's second half on the live
// run's own admission decisions: replaying the derived script over the
// same frames is bit-identical at different worker counts.
func runReplay(p overloadParams, script []int) (bool, error) {
	mk := func(workers int) ([]string, error) {
		srv, err := newOverloadServer(p, odin.WithMaxQueue(p.queue),
			odin.WithAdaptiveFidelity(odin.AdaptiveFidelity{Script: script}))
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		frames := genCamFrames(srv, p)[0] // cam 0: the hottest camera's sequence
		return collectFingerprints(srv, frames,
			odin.StreamOptions{MaxBatch: p.maxBatch, Workers: workers})
	}
	w1, err := mk(1)
	if err != nil {
		return false, err
	}
	w4, err := mk(4)
	if err != nil {
		return false, err
	}
	if len(w1) != len(w4) {
		return false, fmt.Errorf("overload bench: replay lengths differ: %d vs %d", len(w1), len(w4))
	}
	for i := range w1 {
		if w1[i] != w4[i] {
			return false, fmt.Errorf("overload bench: replay diverged at frame %d:\n w1 %s\n w4 %s", i, w1[i], w4[i])
		}
	}
	return true, nil
}

// runOverloadBench measures the QoS subsystem under bursty overload and
// writes BENCH_overload.json under outDir; human-readable tables go to w.
func runOverloadBench(scale exp.Scale, outDir string, w io.Writer) error {
	p := overloadParamsFor(scale)
	doc := overloadBenchResult{
		Scale: scale.String(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		OfferedMultiple: overloadMult, QueueBound: p.queue,
	}

	fps, err := calibrateService(p)
	if err != nil {
		return err
	}
	doc.ServiceFPS = fps
	fmt.Fprintf(w, "Overload: calibrated fleet service rate %.1f f/s; offering %.0fx in bursts (queue=%d, GOMAXPROCS=%d)\n",
		fps, overloadMult, p.queue, doc.GOMAXPROCS)

	off, _, err := runOverloadArm(p, fps, false)
	if err != nil {
		return err
	}
	on, fidCount, err := runOverloadArm(p, fps, true)
	if err != nil {
		return err
	}
	doc.FidelityOn = fidCount

	for c := range off {
		cam := overloadCam{
			Cam: c, Share: camShares[c], Weight: camWeights[c], Offered: off[c].offered,
			OffP99Ms:   obs.Percentile(off[c].latMs, 0.99),
			OnP99Ms:    obs.Percentile(on[c].latMs, 0.99),
			OnDegraded: on[c].degraded, Transitions: on[c].transitions,
		}
		if n := len(off[c].latMs); n > 0 {
			cam.OffMaxMs = off[c].latMs[n-1]
		}
		if n := len(on[c].latMs); n > 0 {
			cam.OnMaxMs = on[c].latMs[n-1]
		}
		doc.Cameras = append(doc.Cameras, cam)
		doc.Transitions += on[c].transitions
		if cam.OffP99Ms > doc.WorstOffP99Ms {
			doc.WorstOffP99Ms = cam.OffP99Ms
		}
		if cam.OnP99Ms > doc.WorstOnP99Ms {
			doc.WorstOnP99Ms = cam.OnP99Ms
		}
		fmt.Fprintf(w, "  cam-%d (share %.0f%%, weight %d, %d frames):  p99 off %8.1f ms   on %8.1f ms   (%d degraded, %d transitions)\n",
			c, camShares[c]*100, camWeights[c], cam.Offered,
			cam.OffP99Ms, cam.OnP99Ms, cam.OnDegraded, cam.Transitions)
	}
	if doc.WorstOnP99Ms > 0 {
		doc.P99Improvement = doc.WorstOffP99Ms / doc.WorstOnP99Ms
	}
	fmt.Fprintf(w, "  worst per-camera p99: off %.1f ms, on %.1f ms (%.1fx better; %d fidelity transitions)\n",
		doc.WorstOffP99Ms, doc.WorstOnP99Ms, doc.P99Improvement, doc.Transitions)
	fmt.Fprintf(w, "  adaptive-on fidelity mix: %v\n", fidCount)

	if doc.DropLedger, err = runDropLedger(p); err != nil {
		return err
	}
	fmt.Fprintf(w, "  drop ledger (%s): %d offered = %d delivered + %d markers (stream %d, server %d)\n",
		doc.DropLedger.Policy, doc.DropLedger.Offered, doc.DropLedger.Delivered,
		doc.DropLedger.Markers, doc.DropLedger.StreamDropped, doc.DropLedger.ServerDropped)

	if doc.IdentityWorkers, err = runIdentity(p); err != nil {
		return err
	}
	fmt.Fprintf(w, "  at-capacity QoS bit-identical to non-QoS at workers %v\n", doc.IdentityWorkers)

	script := deriveScript(on[0].fids, p.maxBatch)
	doc.ReplayWindows = len(script)
	if doc.ReplayIdentical, err = runReplay(p, script); err != nil {
		return err
	}
	fmt.Fprintf(w, "  live-run script replay (%d windows) bit-identical at workers 1 vs 4\n", doc.ReplayWindows)

	if err := writeJSON(outDir, "overload", doc, w); err != nil {
		return err
	}

	// The JSON lands first so a regression still leaves the series for
	// debugging — but it must fail the run: this bench is the QoS
	// regression gate in CI.
	for c := range off {
		for arm, s := range map[string]armCamStats{"off": off[c], "on": on[c]} {
			if s.dropped != 0 || len(s.latMs) != s.offered {
				return fmt.Errorf("overload bench: cam %d (%s): %d results + %d drops for %d offered frames under Block admission",
					c, arm, len(s.latMs), s.dropped, s.offered)
			}
		}
		if on[c].finalLevel != 0 {
			return fmt.Errorf("overload bench: cam %d ended at fidelity level %d; the cool-down must restore full fidelity", c, on[c].finalLevel)
		}
	}
	if doc.Transitions < 2 {
		return fmt.Errorf("overload bench: only %d fidelity transitions; overload never engaged the controller", doc.Transitions)
	}
	degradedTotal := 0
	for c := range on {
		degradedTotal += on[c].degraded
	}
	if degradedTotal == 0 {
		return fmt.Errorf("overload bench: adaptive arm served every frame at full fidelity under %.0fx load", overloadMult)
	}
	if doc.WorstOnP99Ms*3 > doc.WorstOffP99Ms {
		return fmt.Errorf("overload bench: adaptive p99 %.1f ms not <= 1/3 of non-adaptive %.1f ms",
			doc.WorstOnP99Ms, doc.WorstOffP99Ms)
	}
	return nil
}
