package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Measurement over a window. This box has two cores and noisy neighbours,
// and the program's own trainings come and go: a stall of a second in a
// ten-second run moves a whole-run mean or a whole-run p99 by more than any
// bound worth gating, and a median over slices flips between the slices
// with a training in them and those without. So the window is cut into
// equal slices, each statistic is taken per slice, and the quiet quartile
// is reported: the slice a quarter of the way in from the better end
// (stats.go). Interference only ever makes a slice worse.

// timed is a series of events: when each completed (ns since the run's
// t0) and how long it took.
type timed struct {
	at []int64
	ms []float64
}

const (
	latSliceMin = 200 // samples a slice needs for its p95 to have ten beyond it
	rateSlices  = 10
)

// latencyRule is how one workload's latencies are reduced: into how many
// slices at most, and whether the median and the tail are processor work,
// reported at the reference machine speed, or set by timers, reported as
// measured.
type latencyRule struct {
	maxSlices           int
	p50AtRef, tailAtRef bool
}

// Whether a timing is reported as measured or at the reference machine
// speed (speed.go). Timings of work the processor does are normalised; a
// timing set by timers is not, because the machine's speed hardly moves it
// and scaling it would only add the speedometer's own noise.
const (
	asMeasured = false
	atRefSpeed = true
)

// slowdownIn is the machine's slowdown over [lo, hi) ns after t0, or 1
// for a timing reported as measured.
func (r *run) slowdownIn(lo, hi int64, atRef bool) float64 {
	if !atRef {
		return 1
	}
	s, _ := r.speed.slowdown(r.t0.Add(time.Duration(lo)), r.t0.Add(time.Duration(hi)))
	return s
}

// windowSlowdown reports the machine's slowdown over the measured window
// as harness.slowdown, whether or not a metric is normalised by it.
func (r *run) windowSlowdown(lo, hi int64) {
	s, n := r.speed.slowdown(r.t0.Add(time.Duration(lo)), r.t0.Add(time.Duration(hi)))
	fmt.Fprintf(os.Stderr, "bench: machine slowdown over the measured window: %.3f (%d samples)\n", s, n)
	r.rep.set("harness.slowdown", s)
}

// latencyMetrics reports lat_p50_ms and lat_p95_ms over the events that
// completed in [lo, hi): the quiet quartile over slices of each slice's
// p50 and p95, with the sample count on standard error. A slice holds at
// least latSliceMin samples, so its p95 has minTail beyond it. The whole
// window's p99 as measured (the highest percentile the samples support, on
// a short run) goes to the per-layer list as odin.lat_p99_ms: on this box
// a p99 is the generator's own timer lateness and the neighbours' stalls
// before it is the program, and does not repeat within any bound.
func (r *run) latencyMetrics(series []timed, lo, hi int64, rule latencyRule) {
	var all []float64
	for _, s := range series {
		for i, at := range s.at {
			if at >= lo && at < hi {
				all = append(all, s.ms[i])
			}
		}
	}
	slices := min(rule.maxSlices, max(1, len(all)/latSliceMin))
	cut := make([][]float64, slices)
	width := float64(hi-lo) / float64(slices)
	for _, s := range series {
		for i, at := range s.at {
			if at >= lo && at < hi {
				k := int(float64(at-lo) / width)
				cut[k] = append(cut[k], s.ms[i])
			}
		}
	}
	var p50s, p95s []float64
	for k, lat := range cut {
		sort.Float64s(lat)
		p95, err := percentile(lat, 0.95)
		if err != nil {
			continue // too few samples in this slice
		}
		p50 := lat[len(lat)/2]
		slow := r.slowdownIn(lo+int64(float64(k)*width), lo+int64(float64(k+1)*width), atRefSpeed)
		fmt.Fprintf(os.Stderr, "bench:   slice %d: %d samples, p50 %.3f ms, p95 %.3f ms as measured, slowdown %.3f\n", k, len(lat), p50, p95, slow)
		if rule.p50AtRef {
			p50 /= slow
		}
		if rule.tailAtRef {
			p95 /= slow
		}
		p50s, p95s = append(p50s, p50), append(p95s, p95)
	}
	if len(p95s) == 0 {
		r.fail(1, "%d latency samples support no p95", len(all))
		p50s, p95s = []float64{0}, []float64{0}
	}
	p50, p95 := quietQuartile(p50s, "lower"), quietQuartile(p95s, "lower")
	fmt.Fprintf(os.Stderr, "bench: latency over %d samples in %d slices: p50 %.3f ms, p95 %.3f ms\n", len(all), len(p95s), p50, p95)
	r.rep.set("lat_p50_ms", p50)
	r.rep.set("lat_p95_ms", p95)

	sort.Float64s(all)
	tail, q, err := supportedPercentile(all)
	if err != nil {
		r.fail(1, "latency tail: %v", err)
	}
	fmt.Fprintf(os.Stderr, "bench: whole window as measured: p%g %.3f ms over %d samples\n", q*100, tail, len(all))
	r.rep.set("odin.lat_p99_ms", tail)
}

// sliceRate is the quiet quartile, over rateSlices equal slices of
// [lo, hi), of events per second.
func (r *run) sliceRate(at []int64, lo, hi int64, atRef bool) float64 {
	rates := make([]float64, rateSlices)
	width := float64(hi-lo) / rateSlices
	for _, t := range at {
		if t >= lo && t < hi {
			rates[int(float64(t-lo)/width)]++
		}
	}
	for k := range rates {
		rates[k] *= r.slowdownIn(lo+int64(float64(k)*width), lo+int64(float64(k+1)*width), atRef) / (width / 1e9)
	}
	return quietQuartile(rates, "higher")
}

// rtSample is a snapshot of this process's Go runtime counters.
type rtSample struct {
	mallocs uint64
	gcCPU   float64
	cpu     time.Duration
}

func sampleRT() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return rtSample{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), cpu: selfCPU()}
}

// cpuSample is the serving process's CPU time at one slice edge.
type cpuSample struct {
	at  int64 // ns since t0, as sampled (a timer may fire late)
	cpu time.Duration
}

// probe watches the process that serves the workload over the measured
// window: its CPU at the edges of rateSlices slices, its peak RSS, and
// this process's Go runtime counters at both ends.
type probe struct {
	cpu      []cpuSample
	rtA, rtB rtSample
	err      error
	done     chan struct{} // closed when the window has ended
}

// startProbe measures [lo, hi) after t0 on process pid (this process, or
// the odin-serve child).
func (r *run) startProbe(t0 time.Time, lo, hi time.Duration, pid int) *probe {
	p := &probe{done: make(chan struct{})}
	readCPU := func() time.Duration {
		if pid == os.Getpid() {
			return selfCPU()
		}
		cpu, err := procCPU(pid)
		if err != nil {
			p.err = err
		}
		return cpu
	}
	go func() {
		defer close(p.done)
		time.Sleep(lo - time.Since(t0))
		p.rtA = sampleRT()
		stopRSS := r.watchRSS(pid)
		for i := 0; i <= rateSlices; i++ {
			time.Sleep(lo + time.Duration(i)*(hi-lo)/rateSlices - time.Since(t0))
			p.cpu = append(p.cpu, cpuSample{at: time.Since(t0).Nanoseconds(), cpu: readCPU()})
		}
		p.rtB = sampleRT()
		if err := stopRSS(); err != nil {
			p.err = err
		}
	}()
	return p
}

// probeMetrics waits for the window to end and reports cpu_ms_per_frame —
// the quiet quartile over slices of CPU used per frame completed in the slice —
// and the runtime's counters. arrivals are completion times, each of
// framesPer frames.
func (r *run) probeMetrics(p *probe, arrivals []int64, framesPer int, atRef bool) error {
	<-p.done
	if p.err != nil {
		return p.err
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	before := func(t int64) int {
		return framesPer * sort.Search(len(arrivals), func(i int) bool { return arrivals[i] >= t })
	}
	var perFrame []float64
	for i := 1; i < len(p.cpu); i++ {
		a, b := p.cpu[i-1], p.cpu[i]
		if frames := before(b.at) - before(a.at); frames > 0 {
			perFrame = append(perFrame, 1e3*(b.cpu-a.cpu).Seconds()/float64(frames)/r.slowdownIn(a.at, b.at, atRef))
		}
	}
	if len(perFrame) == 0 {
		return fmt.Errorf("no frames completed in the measured window")
	}
	r.rep.set("cpu_ms_per_frame", quietQuartile(perFrame, "lower"))

	frames := before(p.cpu[len(p.cpu)-1].at) - before(p.cpu[0].at)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := (p.rtB.cpu - p.rtA.cpu).Seconds()
	r.rep.set("rt.allocs_per_frame", float64(p.rtB.mallocs-p.rtA.mallocs)/float64(max(frames, 1)))
	r.rep.set("rt.gc_cpu_share", (p.rtB.gcCPU-p.rtA.gcCPU)/max(cpu, 1e-9))
	r.rep.set("rt.heap_peak_mb", float64(ms.HeapSys)/(1<<20))
	return nil
}
