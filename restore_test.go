package odin

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"odin/internal/checkpoint"
	"odin/internal/core"
	"odin/internal/detect"
)

// checkpointedRun bootstraps a server, processes the first half of a drift
// stream sequentially, checkpoints, then finishes the stream, returning the
// checkpoint bytes, the full frame sequence, the per-frame fingerprints and
// the final stats. The midpoint is chosen inside the second phase so the
// checkpoint carries non-trivial state: clusters, a specialized model, a
// partially filled temp window and outlier ring.
func checkpointedRun(t *testing.T, seed uint64, perPhase int, opts ...Option) (ckpt []byte, frames []*Frame, fps []string, cutAt int, final Stats) {
	t.Helper()
	options := append(fastServerOptions(seed), opts...)
	ref, err := New(options...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	frames = driftStream(ref, perPhase)
	cutAt = perPhase + perPhase/2 // mid second phase
	st, err := ref.OpenStream(context.Background(), StreamOptions{Name: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	fps = make([]string, len(frames))
	for i, f := range frames {
		if i == cutAt {
			var buf bytes.Buffer
			if err := ref.Checkpoint(&buf); err != nil {
				t.Fatalf("checkpoint at frame %d: %v", i, err)
			}
			ckpt = buf.Bytes()
		}
		r, err := st.Process(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = r.Fingerprint()
	}
	if ref.Stats().DriftEvents == 0 {
		t.Fatal("drift stream produced no drift events; the round-trip test would be vacuous")
	}
	return ckpt, frames, fps, cutAt, ref.Stats()
}

// TestCheckpointRestoreBitIdentical is the acceptance gate of the
// checkpoint subsystem: Checkpoint → Restore → replay of the rest of a
// drift scenario is bit-identical to the uninterrupted run, sequentially
// and at 1/4/8 workers (run under -race in CI).
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const seed, perPhase = 11, 60
	ckpt, frames, want, cutAt, wantStats := checkpointedRun(t, seed, perPhase)
	tail := frames[cutAt:]

	// Sequential replay on a restored server.
	t.Run("sequential", func(t *testing.T) {
		srv, err := Restore(bytes.NewReader(ckpt), fastServerOptions(seed)...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.OpenStream(context.Background(), StreamOptions{Name: "restored"})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range tail {
			r, err := st.Process(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Fingerprint(); got != want[cutAt+i] {
				t.Fatalf("frame %d diverged after restore:\n got  %s\n want %s", cutAt+i, got, want[cutAt+i])
			}
		}
		if got := srv.Stats(); !reflect.DeepEqual(got, wantStats) {
			t.Fatalf("stats diverged: got %+v want %+v", got, wantStats)
		}
	})

	// Sharded replay: restore once per worker count, drive via Run.
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, err := Restore(bytes.NewReader(ckpt), fastServerOptions(seed)...)
			if err != nil {
				t.Fatal(err)
			}
			st, err := srv.OpenStream(context.Background(), StreamOptions{Name: "restored", Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in := make(chan *Frame)
			out := st.Run(ctx, in)
			go func() {
				for _, f := range tail {
					in <- f
				}
				close(in)
			}()
			i := 0
			for r := range out {
				if got := r.Fingerprint(); got != want[cutAt+i] {
					t.Fatalf("frame %d diverged (workers=%d):\n got  %s\n want %s", cutAt+i, workers, got, want[cutAt+i])
				}
				i++
			}
			if i != len(tail) {
				t.Fatalf("got %d results, want %d", i, len(tail))
			}
			if got := srv.Stats(); !reflect.DeepEqual(got, wantStats) {
				t.Fatalf("stats diverged: got %+v want %+v", got, wantStats)
			}
		})
	}
}

// TestRestoreContinuesFrameGenerator asserts the generator's RNG position
// survives the round trip: frames generated after restore are identical to
// the ones the original server would have generated.
func TestRestoreContinuesFrameGenerator(t *testing.T) {
	const seed, perPhase = 11, 40
	ckpt, _, _, _, _ := checkpointedRun(t, seed, perPhase)

	orig, err := New(fastServerOptions(seed)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	// Advance the original generator to the same position the checkpoint
	// recorded (bootstrap + the full drift stream were generated pre-cut).
	driftStream(orig, perPhase)

	srv, err := Restore(bytes.NewReader(ckpt), fastServerOptions(seed)...)
	if err != nil {
		t.Fatal(err)
	}
	a := orig.GenerateFrames(DayData, 5)
	b := srv.GenerateFrames(DayData, 5)
	for i := range a {
		if a[i].Index != b[i].Index || !reflect.DeepEqual(a[i].Boxes, b[i].Boxes) ||
			!reflect.DeepEqual(a[i].Image.Pix, b[i].Image.Pix) {
			t.Fatalf("generated frame %d diverged after restore", i)
		}
	}
}

// TestRestoreIsBootstrapped asserts the restored server rejects a second
// Bootstrap and reports the checkpointed model state.
func TestRestoreIsBootstrapped(t *testing.T) {
	const seed, perPhase = 11, 40
	ckpt, _, _, cutAt, _ := checkpointedRun(t, seed, perPhase)
	srv, err := Restore(bytes.NewReader(ckpt), fastServerOptions(seed)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), nil); !errors.Is(err, ErrAlreadyBootstrapped) {
		t.Fatalf("Bootstrap after restore = %v, want ErrAlreadyBootstrapped", err)
	}
	if got := srv.Stats().Frames; got != cutAt {
		t.Fatalf("restored server reports %d processed frames, want %d", got, cutAt)
	}
}

// TestCheckpointErrorPaths exercises the typed sentinels of the envelope
// format through the public Restore path: wrong magic, unsupported
// version, truncation and corruption are distinguishable via errors.Is.
func TestCheckpointErrorPaths(t *testing.T) {
	const seed, perPhase = 11, 40
	ckpt, _, _, _, _ := checkpointedRun(t, seed, perPhase)

	restore := func(b []byte) error {
		_, err := Restore(bytes.NewReader(b), fastServerOptions(seed)...)
		return err
	}

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), ckpt...)
		copy(b, "NOTODIN!")
		if err := restore(b); !errors.Is(err, ErrCheckpointBadMagic) {
			t.Fatalf("got %v, want ErrCheckpointBadMagic", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		b := append([]byte(nil), ckpt...)
		b[8] = 99 // bump the little-endian version field
		if err := restore(b); !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("got %v, want ErrCheckpointVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, 20, len(ckpt) / 2, len(ckpt) - 1} {
			if err := restore(ckpt[:n]); !errors.Is(err, ErrCheckpointTruncated) {
				t.Fatalf("truncated at %d: got %v, want ErrCheckpointTruncated", n, err)
			}
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		b := append([]byte(nil), ckpt...)
		b[len(b)/2] ^= 0xff
		if err := restore(b); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
		}
	})
	// A CRC-valid checkpoint whose scene the renderer cannot draw, or
	// whose projector or a detector is not the architecture a Server
	// builds, is refused before anything is built; each of these used to
	// reach a panic: in the generator on first use, or out of Restore.
	for name, edit := range map[string]func(p *checkpoint.Payload){
		"scene geometry":  func(p *checkpoint.Payload) { p.Scene.H, p.Gen.Cfg.H = 4, 4 },
		"detector stride": func(p *checkpoint.Payload) { p.Baseline.Cfg.Strides[0] = 0 },
		"detector height": func(p *checkpoint.Payload) { p.Baseline.Cfg.H = -5 },
		"projector width": func(p *checkpoint.Payload) { p.DAGAN.Cfg.Hidden[0] = -1 },
		"cluster model": func(p *checkpoint.Payload) {
			cfg := detect.SpecializedConfig(p.Scene.H, p.Scene.W)
			cfg.Strides = []int{2, 0}
			p.Pipeline.Manager.MostRecentOwn = &core.ModelState{Kind: detect.KindSpecialized, Det: detect.State{Cfg: cfg}}
		},
	} {
		t.Run(name, func(t *testing.T) {
			p, _, err := checkpoint.Read(bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			edit(p)
			var b bytes.Buffer
			if err := checkpoint.Write(&b, p); err != nil {
				t.Fatal(err)
			}
			if err := restore(b.Bytes()); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
			}
		})
	}
	t.Run("sentinels exported", func(t *testing.T) {
		// The facade sentinels alias the internal ones so both layers'
		// wrapping stays errors.Is-able.
		if !errors.Is(ErrCheckpointCorrupt, checkpoint.ErrCorrupt) {
			t.Fatal("facade sentinel does not alias internal sentinel")
		}
	})
}

// TestCheckpointAfterClose asserts the Close → Checkpoint shutdown
// contract: Close drains the trainer deterministically, Checkpoint still
// works on the closed server, and the checkpoint restores with no pending
// recoveries.
func TestCheckpointAfterClose(t *testing.T) {
	const seed, perPhase = 11, 60
	opts := append(fastServerOptions(seed), WithTrainAsync(true))
	srv, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	frames := driftStream(srv, perPhase)
	st, err := srv.OpenStream(context.Background(), StreamOptions{Name: "cam"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := st.Process(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if n := restored.PendingRecoveries(); n != 0 {
		t.Fatalf("restored server has %d pending recoveries, want 0", n)
	}
	// The restored replica serves: process a few fresh frames.
	st2, err := restored.OpenStream(context.Background(), StreamOptions{Name: "cam"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range restored.GenerateFrames(SnowData, 5) {
		if _, err := st2.Process(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreLegacyDTypeByte: header byte 12 is reserved, and older
// writers stored their compute dtype there (1: float32). A checkpoint whose
// byte says float32 — its CRC trailer recomputed, so only that byte differs
// — must restore and replay the drift tail with the fingerprints of the
// unmodified checkpoint, frame for frame.
func TestRestoreLegacyDTypeByte(t *testing.T) {
	const seed, perPhase = 11, 60
	ckpt, frames, _, cutAt, _ := checkpointedRun(t, seed, perPhase)
	legacy := append([]byte(nil), ckpt...)
	legacy[12] = 1
	n := len(legacy) - 4
	binary.LittleEndian.PutUint32(legacy[n:], crc32.ChecksumIEEE(legacy[:n]))
	if _, b, err := checkpoint.Read(bytes.NewReader(legacy)); err != nil || b != 1 {
		t.Fatalf("the edited envelope does not read back with byte 12 = 1: byte %d, %v", b, err)
	}

	replay := func(data []byte) []string {
		srv, err := Restore(bytes.NewReader(data), fastServerOptions(seed)...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.OpenStream(context.Background(), StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var fps []string
		for _, f := range frames[cutAt:] {
			r, err := st.Process(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			fps = append(fps, r.Fingerprint())
		}
		return fps
	}
	want, got := replay(ckpt), replay(legacy)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d diverged under the float32 byte:\n got  %s\n want %s", cutAt+i, got[i], want[i])
		}
	}
}
