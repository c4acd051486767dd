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

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8780", "base URL of the odin-serve replica")
	seed := flag.Uint64("seed", 7, "bootstrap seed (must match the replica's)")
	perPhase := flag.Int("frames", 50, "frames per drift phase (night, day)")
	workers := flag.Int("workers", 4, "replica stream session workers")
	batch := flag.Int("batch", 16, "frames per HTTP batch")
	bootFrames := flag.Int("bootstrap-frames", 80, "bootstrap frames (must match the replica's)")
	bootEpochs := flag.Int("bootstrap-epochs", 1, "bootstrap epochs (must match the replica's)")
	baseEpochs := flag.Int("baseline-epochs", 2, "baseline epochs (must match the replica's)")
	wait := flag.Duration("wait", 2*time.Minute, "how long to wait for the replica to report booted")
	flag.Parse()

	logger := log.New(os.Stderr, "odin-conform: ", log.LstdFlags)
	if err := run(*addr, *seed, *perPhase, *workers, *batch,
		*bootFrames, *bootEpochs, *baseEpochs, *wait, logger); err != nil {
		logger.Fatal(err)
	}
	logger.Print("PASS: replica fingerprints are bit-identical to in-process")
}

func run(addr string, seed uint64, perPhase, workers, batch,
	bootFrames, bootEpochs, baseEpochs int, wait time.Duration, logger *log.Logger) error {

	if err := waitBooted(addr, wait); err != nil {
		return err
	}

	logger.Printf("bootstrapping in-process reference (seed %d)", seed)
	ref, err := odin.New(
		odin.WithSeed(seed),
		odin.WithBootstrapFrames(bootFrames),
		odin.WithBootstrapEpochs(bootEpochs),
		odin.WithBaselineEpochs(baseEpochs),
	)
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := ref.Bootstrap(context.Background(), nil); err != nil {
		return err
	}

	frames := ref.GenerateFrames(odin.NightData, perPhase)
	frames = append(frames, ref.GenerateFrames(odin.DayData, perPhase)...)

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

	logger.Printf("replaying %d frames over HTTP (%d workers, batches of %d)", len(frames), workers, batch)
	var create serveapi.CreateStreamResponse
	if err := postJSON(addr+"/v1/streams",
		serveapi.CreateStreamRequest{Name: "conform", Workers: workers}, &create); err != nil {
		return err
	}
	mismatches := 0
	for i := 0; i < len(frames); i += batch {
		j := min(i+batch, len(frames))
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
