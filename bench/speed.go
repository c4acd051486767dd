package main

import (
	"encoding/json"
	"sync"
	"time"
)

// Machine speed. This benchmark runs on a two-vCPU microVM on a shared
// host, and the host's other tenants take throughput away from it for
// seconds to minutes at a time: the same floating-point loop, alone on an
// idle guest, takes anything between 15 and 30 ms, the standard library's
// JSON decoder on a fixed document between 0.20 and 0.26 ms. Every raw
// timing follows the neighbours: between two runs of one binary a minute
// apart steady_1cam served 6 100 and 4 300 frames/s, http_2cam 1 440 and
// 980.
//
// The speedometer measures that from inside the run. A goroutine times a
// fixed kernel every 20 ms for the life of the process: a third
// multiply-add chains, a third encoding/json decoding a fixed request, a
// third integer arithmetic, the kinds of work the program's time goes to.
// None of it is the program's own code, so no change to the program moves
// it. The neighbours slow the three parts differently (the chains by up to
// 1.6, the decoder by 1.3, the integers hardly), and the mix was chosen to
// follow the program's own timings: over forty runs in which the kernel's
// slowdown ranged from 1.0 to 1.5, set-up time, CPU per frame and
// closed-loop throughput each followed it with an exponent between 0.8 and
// 1.2. (Against chains and decoder alone the exponent was 0.7: such a
// kernel is slowed more than the program is.)
//
// The slowdown of a slice of a window is the median kernel time inside it
// over the kernel's time on the quiet machine, and a time-based end-to-end
// metric is reported at the reference speed: a duration is divided by the
// slowdown of its slice, a closed-loop rate is multiplied by it.
const (
	speedChainReps = 1000
	speedIntReps   = 90_000
	speedPixels    = 450
	speedPeriod    = 20 * time.Millisecond
	// speedRefMs is the kernel's median time on this box with quiet
	// neighbours. It only fixes the scale: a slowdown of 1 is that machine.
	speedRefMs = 0.37
)

var speedSink float64

// speedDoc is the JSON part of the kernel: one request of 450 pixel values,
// about 6 KB, decoded into the struct below.
var speedDoc = func() []byte {
	pix := make([]float64, speedPixels)
	for i := range pix {
		pix[i] = float64(i)*0.00137 + 0.123456789
	}
	doc, err := json.Marshal(speedRequest{Frames: []speedFrame{{ID: 7, Pix: pix}}})
	if err != nil {
		panic(err)
	}
	return doc
}()

type speedFrame struct {
	ID  int       `json:"id"`
	Pix []float64 `json:"pix"`
}

type speedRequest struct {
	Frames []speedFrame `json:"frames"`
}

// speedKernel is 1000 passes of four independent multiply-add chains over
// 4 KB (floating-point ports busy, nothing but L1 touched), one decode of
// speedDoc (branches, byte loads, allocation) and 90 000 steps of a
// dependent integer chain: about 0.12 ms each on the quiet machine.
func speedKernel() float64 {
	var a [512]float64
	for i := range a {
		a[i] = float64(i) * 0.001
	}
	s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
	for r := 0; r < speedChainReps; r++ {
		for i := 0; i < len(a); i += 4 {
			s0 += a[i] * 1.0001
			s1 += a[i+1] * 1.0002
			s2 += a[i+2] * 1.0003
			s3 += a[i+3] * 1.0004
		}
	}
	var req speedRequest
	if err := json.Unmarshal(speedDoc, &req); err != nil {
		panic(err)
	}
	x, odd := uint64(12345), 0
	for i := 0; i < speedIntReps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>63 == 1 {
			odd++
		}
	}
	return s0 + s1 + s2 + s3 + req.Frames[0].Pix[0] + float64(odd)
}

// speedometer samples the kernel's duration until stopped. It costs about
// 2 % of one core, the same on every commit.
type speedometer struct {
	mu   sync.Mutex
	at   []time.Time
	ms   []float64
	quit chan struct{}
	done chan struct{}
}

func startSpeedometer() *speedometer {
	s := &speedometer{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(speedPeriod)
		defer t.Stop()
		for {
			start := time.Now()
			speedSink = speedKernel()
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			s.mu.Lock()
			s.at = append(s.at, start)
			s.ms = append(s.ms, ms)
			s.mu.Unlock()
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *speedometer) stop() {
	close(s.quit)
	<-s.done
}

// slowdown is the median kernel time over the samples taken in [from, to),
// as a multiple of the reference, with the sample count. A window without
// samples reads 1.
func (s *speedometer) slowdown(from, to time.Time) (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []float64
	for i, at := range s.at {
		if !at.Before(from) && at.Before(to) {
			in = append(in, s.ms[i])
		}
	}
	if len(in) == 0 {
		return 1, 0
	}
	return median(in) / speedRefMs, len(in)
}
