package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"odin"
	"odin/internal/checkpoint"
	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/synth"
)

// Shared set-up. Every workload starts from the same learned state: a
// server bootstrapped at a fixed seed, warmed on the night regime until
// its clusters exist and their recoveries have landed, then checkpointed.
// The workload restores that checkpoint with its own serving options.
//
// The set-up runs in a child process so that its training heap never
// counts towards the workload's peak RSS or GC state.
const (
	setupSeed      = 91
	setupBootN     = 150
	setupGANEpochs = 2
	setupBaseEpoch = 6
	// setupWarmFrames is past the second night cluster (frame ~650 at
	// this seed), after which the night regime raises no further drift.
	setupWarmFrames = 1000
	setupWarmChunk  = 100
	// noLabels keeps recoveries on the distilled lite model for the whole
	// run: an oracle-labelled specialized training is ~1.6 s of two cores,
	// which does not fit the 10 s window (the repo's fleet-recovery bench
	// makes the same choice). Lite and specialized share one architecture,
	// so serving cost is unaffected.
	noLabels = 1 << 20
)

// setupState is what the set-up child prints for its parent to check.
type setupState struct {
	Clusters    int `json:"clusters"`
	Models      int `json:"models"`
	DriftEvents int `json:"drift_events"`
	Frames      int `json:"frames"`
}

// setupEnv names the checkpoint path in the set-up child's environment; a
// process that finds it set is the child. (An environment variable, not a
// flag, so that a test binary can be the child too.)
const setupEnv = "ODIN_BENCH_SETUP_CKPT"

// setupChild runs the shared set-up and reports true when this process is
// the set-up child.
func setupChild() bool {
	ckpt := os.Getenv(setupEnv)
	if ckpt == "" {
		return false
	}
	if err := runSetupChild(ckpt); err != nil {
		fatal(err)
	}
	return true
}

// runSetupChild bootstraps, warms and checkpoints.
func runSetupChild(ckptPath string) error {
	ctx := context.Background()
	srv, err := odin.New(
		odin.WithSeed(setupSeed),
		odin.WithBootstrapFrames(setupBootN),
		odin.WithBootstrapEpochs(setupGANEpochs),
		odin.WithBaselineEpochs(setupBaseEpoch),
		odin.WithTrainAsync(true),
		odin.WithLabelDelay(noLabels),
	)
	if err != nil {
		return err
	}
	if err := srv.Bootstrap(ctx, nil); err != nil {
		return err
	}
	st, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "warm"})
	if err != nil {
		return err
	}
	// Recoveries land at chunk boundaries, so the warmed state — and the
	// checkpoint — is the same on every set-up.
	for done := 0; done < setupWarmFrames; done += setupWarmChunk {
		for _, f := range srv.GenerateFrames(odin.NightData, setupWarmChunk) {
			if _, err := st.Process(ctx, f); err != nil {
				return err
			}
		}
		if err := srv.WaitRecoveries(ctx); err != nil {
			return err
		}
	}
	state := setupState{
		Clusters:    srv.NumClusters(),
		Models:      srv.NumModels(),
		DriftEvents: srv.Stats().DriftEvents,
		Frames:      srv.Stats().Frames,
	}
	if state.Clusters == 0 || state.Models != state.Clusters {
		return fmt.Errorf("warm-up left %d clusters and %d models", state.Clusters, state.Models)
	}
	f, err := os.Create(ckptPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := srv.Checkpoint(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(state)
}

// sharedSetup runs the set-up child once and returns the warmed state.
func sharedSetup(ckptPath string) (setupState, error) {
	self, err := os.Executable()
	if err != nil {
		return setupState{}, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), setupEnv+"="+ckptPath)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupState{}, fmt.Errorf("set-up child: %w", err)
	}
	var st setupState
	if err := json.Unmarshal(bytes.TrimSpace(out), &st); err != nil {
		return setupState{}, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	return st, nil
}

// restore rebuilds a server from the shared checkpoint.
func restore(ckptPath string, opts ...odin.Option) (*odin.Server, error) {
	f, err := os.Open(ckptPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return odin.Restore(bufio.NewReader(f), opts...)
}

// timedSetup performs the whole set-up setupReps times — shared child, then the
// workload's own restore, pool generation and (for HTTP) server start —
// reports the median wall time of all of them as setup_s, and returns the
// teardown of the last one, whose state the workload then runs on. One
// set-up is a few seconds of training, processor work: each is taken at
// the reference machine speed (speed.go), and the median of them is what
// setup_s reports.
func (r *run) timedSetup(own func() (teardown func(), err error)) (func(), error) {
	if r.setupReps == 0 { // the caller has run the shared part
		return own()
	}
	var teardown func()
	var secs []float64
	for i := 0; i < r.setupReps; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if _, err := sharedSetup(r.ckpt); err != nil {
			return nil, err
		}
		td, err := own()
		if err != nil {
			return nil, err
		}
		slow, _ := r.speed.slowdown(t0, time.Now())
		secs = append(secs, time.Since(t0).Seconds()/slow)
		teardown = td
	}
	r.rep.set("setup_s", median(secs))
	return teardown, nil
}

// pool generates n frames of one regime from the workload seed. salt keeps
// the pools of one run distinct.
func pool(seed uint64, salt uint64, sub synth.Subset, n int) []*synth.Frame {
	return synth.NewSceneGen(seed*1_000_003+salt, synth.DefaultSceneConfig()).Dataset(sub, n)
}

// substrate is a pipeline rebuilt from the shared checkpoint the way
// Server.assemble does it, with the core layer's own handles exposed.
type substrate struct {
	dagan    *gan.DAGAN
	baseline *detect.GridDetector
	pipe     *core.Odin
}

func (r *run) newSubstrate(async bool, labelDelay int) (*substrate, error) {
	f, err := os.Open(r.ckpt)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, _, err := checkpoint.Read(f)
	if err != nil {
		return nil, err
	}
	dagan, err := gan.FromState(payload.DAGAN)
	if err != nil {
		return nil, err
	}
	baseline, err := detect.FromState(payload.Baseline)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(payload.Scene)
	cfg.AsyncTrain = async
	cfg.Spec.LabelDelay = labelDelay
	pipe, err := core.FromSnapshot(cfg, dagan, baseline, payload.Pipeline)
	if err != nil {
		return nil, err
	}
	return &substrate{dagan: dagan, baseline: baseline, pipe: pipe}, nil
}

// stationaryNight returns n night frames, generated from the workload seed,
// that the warmed server already routes to one of its clusters (inside a
// ∆-band or its tail). A pool is cycled many times in a run; frames the
// warmed clusters do not cover would recur as the same outliers lap after
// lap, stabilise the temporary cluster and raise a drift whose timing —
// and whose extra model — differs from seed to seed. The stationary
// workloads measure serving; drift_4cam measures drift.
func (r *run) stationaryNight(n int) ([]*synth.Frame, error) {
	sub, err := r.newSubstrate(false, noLabels)
	if err != nil {
		return nil, err
	}
	set := sub.pipe.Detector.Clusters
	covered := func(f *synth.Frame) bool {
		z := sub.pipe.Project(f)
		for _, c := range set.Permanent {
			if c.Contains(z) || c.InTail(z, set.Config().TailMargin) {
				return true
			}
		}
		return false
	}
	gen := synth.NewSceneGen(r.seed*1_000_003+saltNight, synth.DefaultSceneConfig())
	out := make([]*synth.Frame, 0, n)
	for made := 0; len(out) < n; made += n {
		if made > 8*n {
			return nil, fmt.Errorf("the warmed clusters cover %d of %d night frames; cannot fill a pool of %d", len(out), made, n)
		}
		for _, f := range gen.Dataset(synth.NightData, n) {
			if len(out) < n && covered(f) {
				out = append(out, f)
			}
		}
	}
	return out, nil
}

// watchRSS samples a process's resident set every 20 ms until the returned
// function is called, which reports the highest reading as peak_rss_mb.
// The set-up's training and restore garbage is not the workload's memory,
// so the peak is taken over the measured window rather than from VmHWM.
func (r *run) watchRSS(pid int) (stop func() error) {
	read := func() (float64, error) {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				return kb / 1024, err
			}
		}
		return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
	}
	quit := make(chan struct{})
	type peak struct {
		mb  float64
		err error
	}
	result := make(chan peak)
	go func() {
		var p peak
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			mb, err := read()
			if err != nil {
				p.err = err
			}
			p.mb = max(p.mb, mb)
			select {
			case <-quit:
				result <- p
				return
			case <-t.C:
			}
		}
	}()
	return func() error {
		close(quit)
		p := <-result
		if p.err != nil {
			return p.err
		}
		r.rep.set("peak_rss_mb", p.mb)
		return nil
	}
}

// settleHeap returns the set-up's garbage to the operating system, so the
// measured window starts from the workload's live heap.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns another process's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux port Go supports
	return time.Duration(ut+st) * tick, nil
}
