package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"odin"
	"odin/internal/serveapi"
	"odin/internal/synth"
)

const (
	httpBatch   = 4   // frames per request: a 10 s window then completes over 2 000 requests even on a slow day, enough for ten slices
	httpBatches = 128 // pre-encoded request bodies, cycled
	querySQL    = "SELECT COUNT(detections) FROM stream USING MODEL odin WHERE class='car'"
)

// serveChild is a running odin-serve process.
type serveChild struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
}

// startServe starts the odin-serve binary run.sh built, restored from the
// shared checkpoint, and waits until it answers /healthz as booted.
func (r *run) startServe() (*serveChild, error) {
	bin := filepath.Join(buildDir, "odin-serve")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("%w (bench/run.sh builds it)", err)
	}
	// Take a free port from the kernel and hand it to the child.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(r.dir, "odin-serve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-restore", r.ckpt,
		"-obs="+strconv.FormatBool(r.trace),
		"-label-delay", strconv.Itoa(noLabels))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &serveChild{cmd: cmd, base: "http://" + addr, log: logf}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h serveapi.HealthResponse
		if err := getJSON(http.DefaultClient, c.base+"/healthz", &h); err == nil && h.Booted {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("odin-serve did not come up on %s; see its log in %s", addr, r.dir)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop ends the child gracefully and waits for it.
func (c *serveChild) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
	c.log.Close()
}

func getJSON(cl *http.Client, url string, v any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON posts body and decodes a 200 response into v.
func postJSON(cl *http.Client, url string, body []byte, v any) error {
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}

// oneConn is a client that keeps a single connection alive.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// httpConn is what one connection's closed loop observed.
type httpConn struct {
	rtt    timed // per request: completion time and round trip
	errs   int   // transport errors, non-200, wrong result counts
	full   int   // ingest results served at full fidelity
	frames int   // frames answered
}

// http2cam: a real odin-serve child process and two keep-alive
// connections in closed loop on the stationary night regime. Connection A
// posts pre-encoded 4-frame batches to one stream session; connection B
// executes a prepared COUNT query on the same batches. JSON decode and
// encode do most of the work here and none in the other workloads, and
// ingest advances drift state beside count-pushdown reads on one pipeline.
func (r *run) http2cam() error {
	warm := time.Duration(r.seconds / 8 * float64(time.Second))
	window := time.Duration(r.seconds * float64(time.Second))

	var child *serveChild
	var night []*synth.Frame
	bodies := make([][]byte, httpBatches)
	teardown, err := r.timedSetup(func() (func(), error) {
		var err error
		if child, err = r.startServe(); err != nil {
			return nil, err
		}
		if night, err = r.stationaryNight(httpBatch * httpBatches); err != nil {
			child.stop()
			return nil, err
		}
		for b := range bodies {
			req := serveapi.FramesRequest{Frames: make([]serveapi.Frame, httpBatch)}
			for i := range req.Frames {
				req.Frames[i] = serveapi.FromFrame(night[b*httpBatch+i])
			}
			// FramesRequest and ExecuteRequest share one JSON shape, so
			// both connections post the same bodies.
			if bodies[b], err = json.Marshal(req); err != nil {
				child.stop()
				return nil, err
			}
		}
		return child.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	ingest, query := oneConn(), oneConn()
	var stream serveapi.CreateStreamResponse
	mk, _ := json.Marshal(serveapi.CreateStreamRequest{Name: "ingest", Workers: r.nproc, MaxBatch: httpBatch})
	if err := postJSON(ingest, child.base+"/v1/streams", mk, &stream); err != nil {
		return err
	}
	var prepared serveapi.PrepareResponse
	pr, _ := json.Marshal(serveapi.PrepareRequest{SQL: querySQL})
	if err := postJSON(query, child.base+"/v1/prepared", pr, &prepared); err != nil {
		return err
	}

	t0 := time.Now()
	r.t0 = t0
	end := warm + window
	loop := func(c *httpConn, do func(n int, body []byte) error) {
		for n := 0; time.Since(t0) < end; n++ {
			start := time.Since(t0)
			if err := do(n, bodies[n%httpBatches]); err != nil {
				c.errs++
				fmt.Fprintln(os.Stderr, "bench:", err)
				if c.errs > 16 {
					return // the server is gone; do not spin
				}
				continue
			}
			now := time.Since(t0)
			c.rtt.at = append(c.rtt.at, now.Nanoseconds())
			c.rtt.ms = append(c.rtt.ms, float64(now-start)/1e6)
			c.frames += httpBatch
		}
	}
	var a, b httpConn
	done := make(chan struct{})
	go func() { // connection A: ingest
		defer close(done)
		url := child.base + "/v1/streams/" + stream.ID + "/frames"
		seq := 0
		loop(&a, func(n int, body []byte) error {
			var resp serveapi.FramesResponse
			if err := postJSON(ingest, url, body, &resp); err != nil {
				return err
			}
			if len(resp.Results) != httpBatch || resp.Dropped != 0 {
				return fmt.Errorf("ingest batch %d: %d results, %d dropped, want %d results", n, len(resp.Results), resp.Dropped, httpBatch)
			}
			if got := resp.Results[0].Seq; got != seq {
				return fmt.Errorf("ingest batch %d starts at seq %d, want %d", n, got, seq)
			}
			seq += httpBatch
			for _, res := range resp.Results {
				if res.Fidelity == "" {
					a.full++
				}
			}
			return nil
		})
	}()
	p := r.startProbe(t0, warm, end, child.cmd.Process.Pid)
	url := child.base + "/v1/prepared/" + prepared.ID + "/execute"
	loop(&b, func(n int, body []byte) error { // connection B: query
		var resp serveapi.QueryResult
		if err := postJSON(query, url, body, &resp); err != nil {
			return err
		}
		if resp.FramesScanned != httpBatch || len(resp.PerFrame) != httpBatch {
			return fmt.Errorf("query batch %d: scanned %d frames, %d counts, want %d", n, resp.FramesScanned, len(resp.PerFrame), httpBatch)
		}
		return nil
	})
	<-done

	lo, hi := warm.Nanoseconds(), end.Nanoseconds()
	r.windowSlowdown(lo, hi)
	r.attempted += a.frames + b.frames + httpBatch*(a.errs+b.errs)
	r.fail(httpBatch*(a.errs+b.errs), "%d ingest and %d query requests failed", a.errs, b.errs)
	both := append(append([]int64(nil), a.rtt.at...), b.rtt.at...)
	// A round trip is JSON decoding, the pipeline and JSON encoding:
	// processor work throughout.
	r.rep.set("frames_per_s", httpBatch*r.sliceRate(both, lo, hi, atRefSpeed))
	r.rep.set("http.ingest_frames_per_s", httpBatch*r.sliceRate(a.rtt.at, lo, hi, atRefSpeed))
	r.rep.set("http.query_frames_per_s", httpBatch*r.sliceRate(b.rtt.at, lo, hi, atRefSpeed))
	r.latencyMetrics([]timed{a.rtt, b.rtt}, lo, hi, latencyRule{maxSlices: 10, p50AtRef: atRefSpeed, tailAtRef: atRefSpeed})
	r.httpRTTus = 1e3 * median(append(append([]float64(nil), a.rtt.ms...), b.rtt.ms...)) / httpBatch
	r.rep.set("full_fidelity_share", float64(a.full)/float64(max(a.frames, 1)))
	r.rep.set("qos.degraded_share", 1-float64(a.full)/float64(max(a.frames, 1)))
	if err := r.probeMetrics(p, both, httpBatch, atRefSpeed); err != nil {
		return err
	}

	var st serveapi.StatsResponse
	if err := getJSON(ingest, child.base+"/v1/stats", &st); err != nil {
		return err
	}
	c := counters{driftEvents: st.DriftEvents, clusters: st.NumClusters, models: st.NumModels}
	if d := st.Dispatch; d != nil {
		c.batches, c.batchFrames = d.Batches, d.Frames
	}
	if t := st.Trainer; t != nil {
		c.trainer = odin.TrainerStats{Trained: t.Trained, Failed: t.Failed, Scratch: t.Scratch, Warm: t.Warm, Adopted: t.Adopted, Coalesced: t.Coalesced}
	}
	r.counterMetrics(c)
	if r.trace {
		r.stageShares(func(w io.Writer) error {
			resp, err := ingest.Get(child.base + "/metrics")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, err = io.Copy(w, resp.Body)
			return err
		})
	}
	return nil
}
