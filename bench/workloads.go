package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"odin"
	"odin/internal/detect"
	"odin/internal/synth"
)

// Pool salts: one per regime pool, so no two pools of a run share frames.
const (
	saltNight = iota + 1
	saltDay
	saltSnow
	saltHeldDay
	saltHeldSnow
)

// tick is the open-loop generator's period. Frames due within one tick
// are sent together and share its due time.
const tick = 5 * time.Millisecond

// openLoop offers frames to the cameras on a fixed schedule for total:
// at every tick, rate(elapsed, cam) frames per second are due on each
// camera, and pick chooses them. A late generator sends at once — the
// frames keep their due time, so the delay counts as latency — and how
// late each tick ran is returned in milliseconds.
func openLoop(t0 time.Time, total time.Duration, cams []*camera,
	rate func(elapsed time.Duration, cam int) float64,
	pick func(elapsed time.Duration, cam, n int) *odin.Frame) (lateMs []float64) {

	owed := make([]float64, len(cams))
	for k := 0; ; k++ {
		due := time.Duration(k) * tick
		if due >= total {
			break
		}
		if wait := due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		lateMs = append(lateMs, float64(time.Since(t0)-due)/1e6)
		for ci, c := range cams {
			owed[ci] += rate(due, ci) * tick.Seconds()
			for ; owed[ci] >= 1; owed[ci]-- {
				if !c.send(pick(due, ci, c.sent), due.Nanoseconds()) {
					panic("bench: open-loop schedule exceeds the camera's capacity")
				}
			}
		}
	}
	for _, c := range cams {
		close(c.in)
	}
	return lateMs
}

// runOpenLoop drives the cameras through an open-loop schedule of length
// total with the probe running, waits for every result, and reports the
// metrics all open-loop workloads share.
func (r *run) runOpenLoop(total time.Duration, cams []*camera, tr *driftTracker, lat latencyRule,
	rate func(elapsed time.Duration, cam int) float64,
	pick func(elapsed time.Duration, cam, n int) *odin.Frame) error {

	settleHeap()
	t0 := time.Now()
	r.t0 = t0
	p := r.startProbe(t0, 0, total, os.Getpid())
	done := make(chan struct{})
	for _, c := range cams {
		go func() { c.consume(t0, tr); done <- struct{}{} }()
	}
	lateMs := openLoop(t0, total, cams, rate, pick)
	for range cams {
		<-done
	}
	wall := time.Since(t0)
	r.windowSlowdown(0, total.Nanoseconds())

	offered, delivered := r.ledger(cams)
	// An open loop delivers what it is offered unless the backlog outlives
	// the schedule: frames over the time to the last result.
	r.rep.set("frames_per_s", float64(delivered)/wall.Seconds())
	series := make([]timed, len(cams))
	var arrivals []int64
	full := 0
	for i, c := range cams {
		series[i] = c.lat
		arrivals = append(arrivals, c.lat.at...)
		full += c.full
	}
	r.latencyMetrics(series, 0, total.Nanoseconds(), lat)
	r.rep.set("full_fidelity_share", float64(full)/float64(max(offered, 1)))

	sort.Float64s(lateMs)
	late, _, err := supportedPercentile(lateMs)
	if err != nil {
		r.fail(1, "generator lateness: %v", err)
	}
	fmt.Fprintf(os.Stderr, "bench: generator lateness p99 %.3f ms over %d ticks\n", late, len(lateMs))
	r.rep.set("harness.gen_late_p99_ms", late)
	return r.probeMetrics(p, arrivals, 1, atRefSpeed)
}

// commonOpts are the serving options every in-process server restores
// with. The workloads turn observability on in the traced pass only; the
// replay chooses.
func (r *run) commonOpts(obs bool) []odin.Option {
	return []odin.Option{
		odin.WithWorkers(r.nproc),
		odin.WithLabelDelay(noLabels),
		odin.WithObservability(obs),
	}
}

// steady1cam: one camera, stationary night regime, closed loop. Stream.Run
// is fed from a 256-deep channel as fast as results drain; the trainer,
// dispatcher, QoS and wire are idle, so the serving path does all the work.
func (r *run) steady1cam() error {
	const (
		poolN     = 1024
		inDepth   = 256
		firstKeep = 2048
	)
	ctx := context.Background()
	warm := time.Duration(r.seconds / 8 * float64(time.Second))
	window := time.Duration(r.seconds * float64(time.Second))

	var srv *odin.Server
	var night []*synth.Frame
	teardown, err := r.timedSetup(func() (func(), error) {
		var err error
		if srv, err = restore(r.ckpt, r.commonOpts(r.trace)...); err != nil {
			return nil, err
		}
		if night, err = r.stationaryNight(poolN); err != nil {
			return nil, err
		}
		return func() { srv.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	st, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "steady", Workers: r.nproc, MaxBatch: 64})
	if err != nil {
		return err
	}
	// 1<<20 frames is several times what the fastest run sends.
	cam := newCamera(st, 1<<20, inDepth)
	cam.firstKeep = firstKeep
	cam.out = st.Run(ctx, cam.in)

	settleHeap()
	t0 := time.Now()
	r.t0 = t0
	p := r.startProbe(t0, warm, warm+window, os.Getpid())
	go func() { // closed-loop producer: blocks whenever 256 frames are waiting
		defer close(cam.in)
		for i := 0; ; i++ {
			select {
			case <-p.done:
				return
			default:
			}
			if !cam.send(night[i%len(night)], time.Since(t0).Nanoseconds()) {
				return
			}
		}
	}()
	tr := &driftTracker{}
	cam.consume(t0, tr) // returns once the producer stopped and the backlog drained
	cams := []*camera{cam}

	lo, hi := warm.Nanoseconds(), (warm + window).Nanoseconds()
	r.windowSlowdown(lo, hi)
	_, delivered := r.ledger(cams)
	// The whole path is processor work, and the latency is the wait behind
	// 256 frames of it.
	r.fps = r.sliceRate(cam.lat.at, lo, hi, asMeasured)
	r.rep.set("frames_per_s", r.sliceRate(cam.lat.at, lo, hi, atRefSpeed))
	r.latencyMetrics([]timed{cam.lat}, lo, hi, latencyRule{maxSlices: 20, p50AtRef: atRefSpeed, tailAtRef: atRefSpeed})
	r.rep.set("full_fidelity_share", float64(cam.full)/float64(max(delivered, 1)))
	if err := r.probeMetrics(p, cam.lat.at, 1, atRefSpeed); err != nil {
		return err
	}
	r.driftMetrics(tr, cams, nil, 0)
	r.qosMetrics(cams)
	r.serverCounters(srv)

	// The sharded, batched Run path must reproduce sequential Process on
	// an identically restored server, result for result.
	ref, err := restore(r.ckpt, r.commonOpts(r.trace)...)
	if err != nil {
		return err
	}
	defer ref.Close()
	refSt, err := ref.OpenStream(ctx, odin.StreamOptions{Name: "reference"})
	if err != nil {
		return err
	}
	mismatches := 0
	for i, got := range cam.first {
		want, err := refSt.Process(ctx, night[i%len(night)])
		if err != nil {
			return err
		}
		if got.Fingerprint() != want.Fingerprint() {
			mismatches++
		}
	}
	r.attempted += len(cam.first)
	r.fail(mismatches, "Run results differ from sequential Process on the first %d frames", len(cam.first))
	return nil
}

// phase is one regime of the drift schedule.
type phase struct {
	name  string
	sub   synth.Subset
	salt  uint64
	share float64 // of the run length
	// newRegime: the phase must raise a drift. The closing night phase is
	// not new: the models the set-up trained should serve it at once
	// (model reuse, paper §5): drift.reuse_share, checked against
	// reuseFloor. "No drift in the closing phase" is not asserted: at the
	// commit that added this benchmark, outliers left over from the snow
	// phase are promoted by a night frame on about one seed in four.
	newRegime bool
}

// driftPhases starts from the warmed night state and returns to it.
var driftPhases = []phase{
	{"day", synth.DayData, saltDay, 0.4, true},
	{"snow", synth.SnowData, saltSnow, 0.4, true},
	{"night", synth.NightData, saltNight, 0.2, false},
}

// reuseFloor is the least share of the closing night phase that landed
// models must serve at once. The seeds tried serve 67–92%, and 53% on a run
// the neighbours stalled so badly that a training outlasted the phase.
const reuseFloor = 0.3

// drift4cam: four cameras through the dispatcher with the async trainer
// and a private fleet registry, open loop at 4×200 frames/s, through the
// regime schedule above. Serving runs at about an eighth of capacity, so
// what a user sees is set by drift detection, training and the model swap.
func (r *run) drift4cam() error {
	const (
		nCams   = 4
		camFPS  = 200.0
		poolN   = 512 // per regime, shared by the cameras at staggered offsets
		heldOut = 200
	)
	ctx := context.Background()
	total := time.Duration(r.seconds * float64(time.Second))

	var srv *odin.Server
	pools := make([][]*synth.Frame, len(driftPhases))
	var held []*synth.Frame
	teardown, err := r.timedSetup(func() (func(), error) {
		var err error
		opts := append(r.commonOpts(r.trace), odin.WithDispatcher(true), odin.WithFleetRecovery(odin.FleetRecovery{}))
		if srv, err = restore(r.ckpt, opts...); err != nil {
			return nil, err
		}
		for i, p := range driftPhases {
			if p.sub == synth.NightData {
				if pools[i], err = r.stationaryNight(poolN); err != nil {
					return nil, err
				}
				continue
			}
			pools[i] = pool(r.seed, p.salt, p.sub, poolN)
		}
		held = append(pool(r.seed, saltHeldDay, synth.DayData, heldOut),
			pool(r.seed, saltHeldSnow, synth.SnowData, heldOut)...)
		return func() { srv.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// Phase boundaries in time.
	ends := make([]time.Duration, len(driftPhases))
	acc := 0.0
	for i, p := range driftPhases {
		acc += p.share
		ends[i] = time.Duration(acc * float64(total))
	}
	phaseAt := func(elapsed time.Duration) int {
		for i, end := range ends {
			if elapsed < end {
				return i
			}
		}
		return len(ends) - 1
	}

	perCam := int(camFPS*r.seconds) + 2
	cams := make([]*camera, nCams)
	for i := range cams {
		st, err := srv.OpenStream(ctx, odin.StreamOptions{Name: fmt.Sprintf("cam-%d", i)})
		if err != nil {
			return err
		}
		cams[i] = newCamera(st, perCam, perCam)
		cams[i].reuseFromNs = ends[len(ends)-2].Nanoseconds()
		cams[i].out = st.Run(ctx, cams[i].in)
	}
	tr := &driftTracker{}
	// Every tick brings one frame per camera and the dispatcher flushes as
	// soon as all four are in: latency is the time to serve a batch of
	// four, processor work, median and tail. A training takes a core for a
	// second or more and the schedule has three or four of them; ten
	// slices leave the quiet quartile three without one.
	err = r.runOpenLoop(total, cams, tr, latencyRule{maxSlices: 10, p50AtRef: atRefSpeed, tailAtRef: atRefSpeed},
		func(time.Duration, int) float64 { return camFPS },
		func(elapsed time.Duration, cam, n int) *odin.Frame {
			return pools[phaseAt(elapsed)][(cam*poolN/nCams+n)%poolN]
		})
	if err != nil {
		return err
	}

	// Recoveries still training when the stream ended get as long again
	// to land; one that does not is a failed operation.
	waitCtx, cancel := context.WithTimeout(ctx, total)
	err = srv.WaitRecoveries(waitCtx)
	cancel()
	tr.resolveAll(time.Since(r.t0).Nanoseconds())
	r.check(err == nil, "recoveries unresolved %v after the stream ended", total)

	r.driftMetrics(tr, cams, ends, nCams*camFPS)
	r.qosMetrics(cams)
	r.serverCounters(srv)

	// Accuracy once every recovery has landed, on frames no camera saw.
	evalSt, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "held-out"})
	if err != nil {
		return err
	}
	dets := make([][]detect.Detection, len(held))
	truth := make([][]synth.Box, len(held))
	for i, f := range held {
		res, err := evalSt.Process(ctx, f)
		if err != nil {
			return err
		}
		dets[i], truth[i] = res.Detections, f.Boxes
	}
	r.rep.set("drift.map_after_recovery", detect.MeanAveragePrecision(dets, truth, 0.5).MAP)
	return nil
}

// Burst rates, in frames/s over all four cameras: twice and a fifth of
// steady_1cam's frames_per_s as measured at the commit that added this
// benchmark (about 6 500 frames/s), frozen as absolute numbers so that a
// faster server meets the same offered load with less queueing instead of
// having the load scaled up with it.
const (
	burstFPS = 13000.0
	calmFPS  = 1300.0
)

// burstQoS4cam: four cameras with unequal shares and weights through the
// dispatcher and the QoS layer — bounded admission queue, Block policy,
// adaptive fidelity — on the stationary night regime, open loop, five
// cycles of a burst at twice capacity then a calm at a fifth of it. Block
// never sheds a frame, so latency and the share of frames served at full
// fidelity carry the whole signal.
func (r *run) burstQoS4cam() error {
	const (
		cycles     = 5
		burstShare = 0.05 // of a cycle
		poolN      = 1024
	)
	shares := []float64{0.4, 0.3, 0.2, 0.1}
	weights := []int{4, 3, 2, 1}
	ctx := context.Background()
	total := time.Duration(r.seconds * float64(time.Second))
	cycle := total / cycles

	var srv *odin.Server
	var night []*synth.Frame
	teardown, err := r.timedSetup(func() (func(), error) {
		var err error
		opts := append(r.commonOpts(r.trace),
			odin.WithDispatcher(true),
			odin.WithTrainAsync(true),
			odin.WithMaxQueue(64),
			odin.WithDropPolicy(odin.DropBlock),
			odin.WithAdaptiveFidelity(odin.AdaptiveFidelity{}))
		if srv, err = restore(r.ckpt, opts...); err != nil {
			return nil, err
		}
		if night, err = r.stationaryNight(poolN); err != nil {
			return nil, err
		}
		return func() { srv.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	meanFPS := burstShare*burstFPS + (1-burstShare)*calmFPS
	cams := make([]*camera, len(shares))
	for i := range cams {
		st, err := srv.OpenStream(ctx, odin.StreamOptions{Name: fmt.Sprintf("cam-%d", i), Weight: weights[i]})
		if err != nil {
			return err
		}
		n := int(shares[i]*meanFPS*r.seconds) + cycles*4
		cams[i] = newCamera(st, n, n)
		cams[i].out = st.Run(ctx, cams[i].in)
	}
	tr := &driftTracker{}
	// One slice per cycle, so that each holds a burst. The median frame is
	// a calm-phase frame and waits for the tick and the dispatcher's
	// linger: timers. The tail is the burst's backlog, drained at the
	// speed the processor serves it.
	err = r.runOpenLoop(total, cams, tr, latencyRule{maxSlices: cycles, p50AtRef: asMeasured, tailAtRef: atRefSpeed},
		func(elapsed time.Duration, cam int) float64 {
			if elapsed%cycle < time.Duration(burstShare*float64(cycle)) {
				return shares[cam] * burstFPS
			}
			return shares[cam] * calmFPS
		},
		func(_ time.Duration, cam, n int) *odin.Frame {
			return night[(cam*poolN/len(shares)+n)%poolN]
		})
	if err != nil {
		return err
	}
	r.driftMetrics(tr, cams, nil, 0)
	r.qosMetrics(cams)
	r.serverCounters(srv)
	return nil
}

// driftMetrics reports the drift events of the run. With a phase schedule
// (ends) it also checks each phase's expectation and how long after the
// regime switch its first drift was raised, in frames at fps.
func (r *run) driftMetrics(tr *driftTracker, cams []*camera, ends []time.Duration, fps float64) {
	var recovery, delayFrames []float64
	perPhase := make([]int, len(ends))
	for _, e := range tr.events {
		r.check(e.resolvedNs > 0, "drift on cluster %d never recovered", e.cluster)
		recovery = append(recovery, float64(e.resolvedNs-e.atNs)/1e9)
		start := time.Duration(0)
		for i, end := range ends {
			if time.Duration(e.atNs) < end {
				if perPhase[i] == 0 {
					delayFrames = append(delayFrames, (time.Duration(e.atNs)-start).Seconds()*fps)
				}
				perPhase[i]++
				break
			}
			start = end
		}
	}
	for i := range ends {
		p := driftPhases[i]
		fmt.Fprintf(os.Stderr, "bench: phase %-5s raised %d drift(s)\n", p.name, perPhase[i])
		if p.newRegime {
			r.check(perPhase[i] >= 1, "phase %s raised no drift", p.name)
		}
	}
	mean := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	stale, delivered, reused, reusable := 0, 0, 0, 0
	for _, c := range cams {
		stale += c.stale
		delivered += c.delivered
		reused += c.reused
		reusable += c.reusable
	}
	if len(ends) > 0 {
		share := float64(reused) / float64(max(reusable, 1))
		fmt.Fprintf(os.Stderr, "bench: closing night phase: %.1f%% of %d frames served at once by a landed model\n", 100*share, reusable)
		r.check(share >= reuseFloor, "landed models served %.0f%% of the closing night phase at once, want at least %.0f%%", 100*share, 100*reuseFloor)
		r.rep.set("drift.reuse_share", share)
	}
	r.rep.set("drift.recovery_s", mean(recovery))
	r.rep.set("cluster.drift_delay_frames", mean(delayFrames))
	r.rep.set("core.stale_served_share", float64(stale)/float64(max(delivered, 1)))
}

// qosMetrics reports what the admission queues and fidelity controllers of
// the cameras did (all zero on a server without QoS).
func (r *run) qosMetrics(cams []*camera) {
	depth, transitions, full, delivered := 0, 0, 0, 0
	for _, c := range cams {
		depth = max(depth, c.depthMax)
		transitions += c.st.QoS().Transitions
		full += c.full
		delivered += c.delivered
	}
	r.rep.set("qos.depth_max", float64(depth))
	r.rep.set("qos.transitions", float64(transitions))
	r.rep.set("qos.degraded_share", 1-float64(full)/float64(max(delivered, 1)))
}

// counters are what the program's own telemetry says after a run, read
// from the facade in process or from /v1/stats over HTTP.
type counters struct {
	driftEvents, clusters, models int
	batches, batchFrames          int
	trainer                       odin.TrainerStats
}

func countersOf(srv *odin.Server) counters {
	ds := srv.DispatchStats()
	return counters{
		driftEvents: srv.Stats().DriftEvents, clusters: srv.NumClusters(), models: srv.NumModels(),
		batches: ds.Batches, batchFrames: ds.Frames, trainer: srv.TrainerStats(),
	}
}

func (r *run) counterMetrics(c counters) {
	r.rep.set("core.drift_events", float64(c.driftEvents))
	r.rep.set("core.clusters", float64(c.clusters))
	r.rep.set("core.models", float64(c.models))
	r.rep.set("dispatch.merged_batch_mean", float64(c.batchFrames)/float64(max(c.batches, 1)))
	r.rep.set("dispatch.flushes_per_s", float64(c.batches)/r.seconds)
	ts := c.trainer
	r.rep.set("trainer.builds_scratch", float64(ts.Scratch))
	r.rep.set("trainer.builds_warm", float64(ts.Warm))
	r.rep.set("trainer.builds_adopted", float64(ts.Adopted))
	r.rep.set("trainer.builds_coalesced", float64(ts.Coalesced))
	r.rep.set("trainer.failed", float64(ts.Failed))
	r.rep.set("registry.reuse_share", float64(ts.Warm+ts.Adopted+ts.Coalesced)/float64(max(ts.Trained, 1)))
}

// serverCounters reports an in-process server's counters and, in the
// traced pass, its stage histograms.
func (r *run) serverCounters(srv *odin.Server) {
	r.counterMetrics(countersOf(srv))
	if r.trace {
		r.stageShares(srv.WriteMetrics)
	}
}
