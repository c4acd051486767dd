// Command odin-conform is the cross-process conformance driver: it
// bootstraps an in-process reference server, replays a synthetic drift
// stream through it, feeds the same frames over HTTP to a running
// odin-serve replica, and compares fingerprints bit-for-bit. Exit code 0
// means every frame matched; 1 means divergence (or transport failure).
//
// The replica must have been started with the same seed, bootstrap
// schedule and policy, e.g.:
//
//	odin-serve -addr :8780 -seed 7 -bootstrap-frames 80 -bootstrap-epochs 1 -baseline-epochs 2 &
//	odin-conform -addr http://127.0.0.1:8780 -seed 7 -frames 50
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"odin"
	"odin/internal/serveapi"
)

// config is one value per flag.
type config struct {
	addr       string
	seed       uint64
	perPhase   int
	workers    int
	batch      int
	bootFrames int
	bootEpochs int
	baseEpochs int
	wait       time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8780", "base URL of the odin-serve replica")
	flag.Uint64Var(&cfg.seed, "seed", 7, "bootstrap seed (must match the replica's)")
	flag.IntVar(&cfg.perPhase, "frames", 50, "frames per drift phase (night, day)")
	flag.IntVar(&cfg.workers, "workers", 4, "replica stream session workers")
	flag.IntVar(&cfg.batch, "batch", 16, "frames per HTTP batch")
	flag.IntVar(&cfg.bootFrames, "bootstrap-frames", 80, "bootstrap frames (must match the replica's)")
	flag.IntVar(&cfg.bootEpochs, "bootstrap-epochs", 1, "bootstrap epochs (must match the replica's)")
	flag.IntVar(&cfg.baseEpochs, "baseline-epochs", 2, "baseline epochs (must match the replica's)")
	flag.DurationVar(&cfg.wait, "wait", 2*time.Minute, "how long to wait for the replica to report booted")
	flag.Parse()

	logger := log.New(os.Stderr, "odin-conform: ", log.LstdFlags)
	if err := run(cfg, logger); err != nil {
		logger.Fatal(err)
	}
	logger.Print("PASS: replica fingerprints are bit-identical to in-process")
}

func run(cfg config, logger *log.Logger) error {
	addr := cfg.addr
	if err := waitBooted(addr, cfg.wait); err != nil {
		return err
	}

	logger.Printf("bootstrapping in-process reference (seed %d)", cfg.seed)
	ref, err := odin.New(
		odin.WithSeed(cfg.seed),
		odin.WithBootstrapFrames(cfg.bootFrames),
		odin.WithBootstrapEpochs(cfg.bootEpochs),
		odin.WithBaselineEpochs(cfg.baseEpochs),
	)
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := ref.Bootstrap(context.Background(), nil); err != nil {
		return err
	}

	frames := ref.GenerateFrames(odin.NightData, cfg.perPhase)
	frames = append(frames, ref.GenerateFrames(odin.DayData, cfg.perPhase)...)

	st, err := ref.OpenStream(context.Background(), odin.StreamOptions{Name: "ref"})
	if err != nil {
		return err
	}
	want := make([]string, len(frames))
	for i, f := range frames {
		res, err := st.Process(context.Background(), f)
		if err != nil {
			return err
		}
		want[i] = res.Fingerprint()
	}
	st.Close()

	logger.Printf("replaying %d frames over HTTP (%d workers, batches of %d)", len(frames), cfg.workers, cfg.batch)
	var create serveapi.CreateStreamResponse
	if err := postJSON(addr+"/v1/streams",
		serveapi.CreateStreamRequest{Name: "conform", Workers: cfg.workers}, &create); err != nil {
		return err
	}
	mismatches := 0
	for i := 0; i < len(frames); i += cfg.batch {
		j := min(i+cfg.batch, len(frames))
		req := serveapi.FramesRequest{}
		for _, f := range frames[i:j] {
			req.Frames = append(req.Frames, serveapi.FromFrame(f))
		}
		var resp serveapi.FramesResponse
		if err := postJSON(addr+"/v1/streams/"+create.ID+"/frames", req, &resp); err != nil {
			return err
		}
		if len(resp.Results) != j-i {
			return fmt.Errorf("batch [%d:%d): got %d results", i, j, len(resp.Results))
		}
		for k, r := range resp.Results {
			if r.Fingerprint != want[i+k] {
				logger.Printf("frame %d: replica %s != reference %s", i+k, r.Fingerprint, want[i+k])
				mismatches++
			}
		}
	}
	req, err := http.NewRequest(http.MethodDelete, addr+"/v1/streams/"+create.ID, nil)
	if err == nil {
		if resp, derr := http.DefaultClient.Do(req); derr == nil {
			resp.Body.Close()
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d/%d frames diverged", mismatches, len(frames))
	}
	return nil
}

// waitBooted polls /healthz until the replica reports booted.
func waitBooted(addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			var h serveapi.HealthResponse
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.Booted {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica at %s not booted after %v", addr, wait)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

func postJSON(url string, body, out any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s = %d: %s", url, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}
