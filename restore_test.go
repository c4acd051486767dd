package odin

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"odin/internal/checkpoint"
	"odin/internal/core"
	"odin/internal/detect"
)

// TestRestoreContinuesFrameGenerator asserts the generator's RNG position
// survives the round trip: frames generated after restore are identical to
// the ones the original server would have generated.
func TestRestoreContinuesFrameGenerator(t *testing.T) {
	const seed, perPhase = 11, 40
	sc := parityScript{seed, perPhase}
	ckpt := sequential(t, sc).ckpts[sc.mid()]

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
	sc := parityScript{seed, perPhase}
	cutAt := sc.mid()
	ckpt := sequential(t, sc).ckpts[cutAt]
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
	sc := parityScript{seed, perPhase}
	ckpt := sequential(t, sc).ckpts[sc.mid()]

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
// uninterrupted run, frame for frame, as the unmodified checkpoint does
// (TestCheckpointRestoreBitIdentical).
func TestRestoreLegacyDTypeByte(t *testing.T) {
	ref, cutAt := sequential(t, mainScript), mainScript.mid()
	legacy := append([]byte(nil), ref.ckpts[cutAt]...)
	legacy[12] = 1
	n := len(legacy) - 4
	binary.LittleEndian.PutUint32(legacy[n:], crc32.ChecksumIEEE(legacy[:n]))
	if _, b, err := checkpoint.Read(bytes.NewReader(legacy)); err != nil || b != 1 {
		t.Fatalf("the edited envelope does not read back with byte 12 = 1: byte %d, %v", b, err)
	}
	srv, err := Restore(bytes.NewReader(legacy), fastServerOptions(mainScript.seed)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range processAll(t, srv, ref.frames[0][cutAt:], nil) {
		if got, want := r.Fingerprint(), ref.results[0][cutAt+i].Fingerprint(); got != want {
			t.Fatalf("frame %d diverged under the float32 byte:\n got  %s\n want %s", cutAt+i, got, want)
		}
	}
}

// TestRestoreVersion1Envelope: a checkpoint in the version 1 layout —
// one gob payload with every frame's pixels inline, as writers before
// version 2 made it — restores and replays the drift tail with the
// fingerprints of the uninterrupted run, frame for frame, as the version
// 2 checkpoint of the same state does. Version 3 is ErrCheckpointVersion.
func TestRestoreVersion1Envelope(t *testing.T) {
	ref, cutAt := sequential(t, mainScript), mainScript.mid()
	v2 := ref.ckpts[cutAt]
	p, _, err := checkpoint.Read(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pipeline.Manager.Buffers)+len(p.Pipeline.Outliers) == 0 {
		t.Fatal("the cut holds no buffered frames, so no pixels cross the envelope")
	}
	envelope := func(version uint32) []byte {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(p); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 24, 24+body.Len()+4)
		copy(b, checkpoint.Magic)
		binary.LittleEndian.PutUint32(b[8:], version)
		binary.LittleEndian.PutUint64(b[16:], uint64(body.Len()))
		b = append(b, body.Bytes()...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	if binary.LittleEndian.Uint32(v2[8:]) != 2 {
		t.Fatalf("Checkpoint wrote version %d, want 2", binary.LittleEndian.Uint32(v2[8:]))
	}
	for name, ckpt := range map[string][]byte{"v1": envelope(1), "v2": v2} {
		srv, err := Restore(bytes.NewReader(ckpt), fastServerOptions(mainScript.seed)...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, r := range processAll(t, srv, ref.frames[0][cutAt:], nil) {
			if got, want := r.Fingerprint(), ref.results[0][cutAt+i].Fingerprint(); got != want {
				t.Fatalf("%s: frame %d diverged:\n got  %s\n want %s", name, cutAt+i, got, want)
			}
		}
	}
	if _, err := Restore(bytes.NewReader(envelope(3)), fastServerOptions(mainScript.seed)...); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version 3: got %v, want ErrCheckpointVersion", err)
	}
}
