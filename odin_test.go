package odin

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"hash/fnv"
	"io/fs"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/nn"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// fastServerOptions keeps the public-API tests quick.
func fastServerOptions(seed uint64) []Option {
	return []Option{
		WithSeed(seed),
		WithBootstrapFrames(80),
		WithBootstrapEpochs(1),
		WithBaselineEpochs(2),
	}
}

// lazyServer is one bootstrapped server reused by the tests that only read
// it (queries, error paths, stream smoke tests). Tests that mutate drift
// state in ways they assert on build their own server instead.
type lazyServer struct {
	opts []Option
	once sync.Once
	srv  *Server
	err  error
}

func (l *lazyServer) get(t *testing.T) *Server {
	t.Helper()
	l.once.Do(func() {
		l.srv, l.err = New(l.opts...)
		if l.err == nil {
			l.err = l.srv.Bootstrap(context.Background(), nil)
		}
	})
	if l.err != nil {
		t.Fatalf("shared server: %v", l.err)
	}
	return l.srv
}

// windowSources are the two places a Run session's windows come from
// (Stream.windowSource): the input channel read directly, or the bounded
// admission queue behind an intake. One session loop serves both, so the
// Run-lifecycle tests run as rows over both.
var windowSources = []struct {
	name string
	opts []Option
}{
	{"direct", nil},
	{"queue", []Option{WithMaxQueue(8), WithDropPolicy(DropBlock)}},
}

var sharedServers = func() []*lazyServer {
	out := make([]*lazyServer, len(windowSources))
	for i, src := range windowSources {
		out[i] = &lazyServer{opts: append(fastServerOptions(3), src.opts...)}
	}
	return out
}()

func sharedServer(t *testing.T) *Server {
	t.Helper()
	return sharedServers[0].get(t)
}

// eachWindowSource runs fn as one subtest per window source, on that
// source's shared server.
func eachWindowSource(t *testing.T, fn func(t *testing.T, srv *Server)) {
	for i, src := range windowSources {
		t.Run(src.name, func(t *testing.T) { fn(t, sharedServers[i].get(t)) })
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"zero seed", WithSeed(0)},
		{"neg frames", WithBootstrapFrames(-1)},
		{"zero epochs", WithBootstrapEpochs(0)},
		{"neg baseline", WithBaselineEpochs(-2)},
		{"neg models", WithMaxModels(-1)},
		{"neg workers", WithWorkers(-4)},
		{"bad policy", WithPolicy(Policy(99))},
		{"neg queue", WithMaxQueue(-1)},
		{"bad drop policy", WithDropPolicy(DropPolicy(9))},
		{"script level out of range", WithAdaptiveFidelity(AdaptiveFidelity{Script: []int{0, 9}})},
	}
	for _, c := range cases {
		if _, err := New(c.opt); err == nil {
			t.Errorf("%s: New should reject the option", c.name)
		}
	}
	if _, err := New(fastServerOptions(1)...); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestOptionSurface pins every value a caller can set on a Server or a
// Stream: the package's With* options, read from the non-test sources, and
// the exported fields of the option structs. Adding a setting fails here,
// so it shows up as a one-line diff to this list.
func TestOptionSurface(t *testing.T) {
	want := []string{
		"AdaptiveFidelity.Script",
		"FleetRecovery.Registry",
		"FleetRecovery.Source",
		"StreamOptions.Buffer",
		"StreamOptions.MaxBatch",
		"StreamOptions.Name",
		"StreamOptions.Weight",
		"StreamOptions.Workers",
		"WithAdaptiveFidelity",
		"WithBaselineEpochs",
		"WithBootstrapEpochs",
		"WithBootstrapFrames",
		"WithDispatcher",
		"WithDropPolicy",
		"WithFleetRecovery",
		"WithLabelDelay",
		"WithMaxModels",
		"WithMaxQueue",
		"WithMinScore",
		"WithObservability",
		"WithPolicy",
		"WithSeed",
		"WithTrainAsync",
		"WithWorkers",
	}
	var got []string
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["odin"].Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() &&
				strings.HasPrefix(fn.Name.Name, "With") && fn.Type.Results.NumFields() == 1 &&
				types.ExprString(fn.Type.Results.List[0].Type) == "Option" {
				got = append(got, fn.Name.Name)
			}
		}
	}
	for _, v := range []any{AdaptiveFidelity{}, FleetRecovery{}, StreamOptions{}} {
		typ := reflect.TypeOf(v)
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, typ.Name()+"."+f.Name)
			}
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the settable surface changed:\n got %v\nwant %v\n"+
			"a new setting needs two non-test callers that want different values, "+
			"else it is a constant", got, want)
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	if _, err := ParsePolicy("turbo"); err == nil {
		t.Fatal("unknown policy should error")
	}
	for _, s := range []string{"delta-bm", "knn-u", "knn-w", "most-recent"} {
		p, err := ParsePolicy(s)
		if err != nil {
			t.Fatalf("policy %q should parse: %v", s, err)
		}
		if p.String() != s {
			t.Fatalf("round trip %q -> %v", s, p)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyDeltaBM {
		t.Fatalf("empty policy should default to delta-bm, got %v, %v", p, err)
	}
}

func TestGenerateFrames(t *testing.T) {
	srv, err := New(fastServerOptions(3)...)
	if err != nil {
		t.Fatal(err)
	}
	frames := srv.GenerateFrames(DayData, 5)
	if len(frames) != 5 {
		t.Fatalf("got %d frames", len(frames))
	}
	for _, f := range frames {
		if f.Image == nil || len(f.Boxes) == 0 {
			t.Fatal("frame missing image or boxes")
		}
	}
	// No frames, not a panic, for a count below one; the sequence goes on
	// where it was.
	for _, n := range []int{0, -1} {
		if got := srv.GenerateFrames(DayData, n); len(got) != 0 {
			t.Fatalf("GenerateFrames(%d) returned %d frames", n, len(got))
		}
	}
	if next := srv.GenerateFrames(DayData, 1)[0]; next.Index != 5 {
		t.Fatalf("frame after the empty requests has index %d, want 5", next.Index)
	}
}

func TestLifecycleErrors(t *testing.T) {
	srv, err := New(fastServerOptions(5)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Everything that needs models reports ErrNotBootstrapped, not a panic.
	if _, err := srv.OpenStream(ctx, StreamOptions{}); !errors.Is(err, ErrNotBootstrapped) {
		t.Fatalf("OpenStream before Bootstrap: %v", err)
	}
	if _, err := srv.Query(ctx, "SELECT COUNT(detections) FROM s USING MODEL yolo WHERE class='car'", nil); !errors.Is(err, ErrNotBootstrapped) {
		t.Fatalf("Query before Bootstrap: %v", err)
	}
	if srv.Stats() != (Stats{}) || srv.MemoryMB() != 0 || srv.NumClusters() != 0 || srv.NumModels() != 0 {
		t.Fatal("telemetry should be zero before Bootstrap")
	}

	if err := srv.Bootstrap(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(ctx, nil); !errors.Is(err, ErrAlreadyBootstrapped) {
		t.Fatalf("double Bootstrap: %v", err)
	}

	st, err := srv.OpenStream(ctx, StreamOptions{Name: "cam-0"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "cam-0" {
		t.Fatalf("stream name %q", st.Name())
	}
	f := srv.GenerateFrames(DayData, 1)[0]
	if _, err := st.Process(ctx, f); err != nil {
		t.Fatalf("Process: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Process(ctx, f); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Process on closed stream: %v", err)
	}

	st2, err := srv.OpenStream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.OpenStream(ctx, StreamOptions{}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("OpenStream after Close: %v", err)
	}
	// Run on a stream of a closed server returns an already-closed channel.
	if _, ok := <-st2.Run(ctx, make(chan *Frame)); ok {
		t.Fatal("Run after server Close should return a closed channel")
	}
	if _, err := srv.Query(ctx, "SELECT COUNT(detections) FROM s USING MODEL yolo WHERE class='car'", nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Query after Close: %v", err)
	}
	if err := srv.Bootstrap(ctx, nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Bootstrap after Close: %v", err)
	}
}

// TestProcessRejectsBadFrame: a frame the models cannot run — nil, without
// an image, of another C, H or W, or with the wrong pixel count — is
// ErrFrameShape from Process, and from a query over a built-in model (naming
// the frame's index), not a panic, and leaves the stream as it was: its next
// good frame has the fingerprint a fresh server gives that frame.
func TestProcessRejectsBadFrame(t *testing.T) {
	ctx := context.Background()
	boot := func() (*Server, *Stream) {
		srv, err := New(fastServerOptions(8)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Bootstrap(ctx, nil); err != nil {
			t.Fatal(err)
		}
		st, err := srv.OpenStream(ctx, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return srv, st
	}
	srv, st := boot()
	good := srv.GenerateFrames(NightData, 1)[0]
	c, h, w := srv.FrameShape()
	image := func(c, h, w, pix int) *Frame {
		return &Frame{Image: &synth.Image{C: c, H: h, W: w, Pix: make([]float64, pix)}}
	}
	for _, tc := range []struct {
		name string
		f    *Frame
	}{
		{"nil frame", nil},
		{"nil image", &Frame{}},
		{"1x1x3", image(3, 1, 1, 3)},
		{"channels", image(c+1, h, w, (c+1)*h*w)},
		{"height", image(c, h-1, w, c*(h-1)*w)},
		{"width", image(c, h, w+1, c*h*(w+1))},
		{"pixels short", image(c, h, w, c*h*w-1)},
		{"pixels long", image(c, h, w, c*h*w+1)},
	} {
		if _, err := st.Process(ctx, tc.f); !errors.Is(err, ErrFrameShape) {
			t.Errorf("%s: Process returned %v, want ErrFrameShape", tc.name, err)
		}
		for _, model := range []string{"odin", "yolo"} {
			_, err := srv.Query(ctx, "SELECT COUNT(detections) FROM stream USING MODEL "+model, []*Frame{good, tc.f})
			if !errors.Is(err, ErrFrameShape) || !strings.Contains(err.Error(), "frame 1") {
				t.Errorf("%s: query over %s returned %v, want ErrFrameShape naming frame 1", tc.name, model, err)
			}
		}
	}
	got, err := st.Process(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := boot()
	want, err := fresh.Process(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("the first good frame after the rejected ones:\n got  %s\n want %s", got.Fingerprint(), want.Fingerprint())
	}
}

// TestRunRejectsBadFrame: on a Run channel a misshapen frame yields a
// StreamResult at its Seq carrying ErrFrameShape and is not processed, so
// the good frames around it fingerprint as sequential Process gives them
// without it — through either window source.
func TestRunRejectsBadFrame(t *testing.T) {
	ctx := context.Background()
	boot := func(opts ...Option) *Stream {
		srv, err := New(append(fastServerOptions(8), opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Bootstrap(ctx, nil); err != nil {
			t.Fatal(err)
		}
		st, err := srv.OpenStream(ctx, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ref := boot()
	frames := ref.srv.GenerateFrames(NightData, 12)
	want := make([]string, len(frames))
	for i, f := range frames {
		r, err := ref.Process(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Fingerprint()
	}
	bad := &Frame{Image: &synth.Image{C: 3, H: 1, W: 1, Pix: make([]float64, 3)}}
	for _, src := range windowSources {
		t.Run(src.name, func(t *testing.T) {
			st := boot(src.opts...)
			in := make(chan *Frame, len(frames)+2)
			for i, f := range frames {
				if i == 5 {
					in <- bad
				}
				in <- f
			}
			in <- nil
			close(in)
			var good, rejected []int
			for res := range st.Run(ctx, in) {
				if res.Err != nil {
					if !errors.Is(res.Err, ErrFrameShape) {
						t.Fatalf("seq %d: Err = %v, want ErrFrameShape", res.Seq, res.Err)
					}
					rejected = append(rejected, res.Seq)
					continue
				}
				if fp := res.Fingerprint(); fp != want[len(good)] {
					t.Fatalf("seq %d diverged from the run without the bad frames:\n got  %s\n want %s", res.Seq, fp, want[len(good)])
				}
				good = append(good, res.Seq)
			}
			if len(good) != len(frames) || !reflect.DeepEqual(rejected, []int{5, len(frames) + 1}) {
				t.Fatalf("good seqs %v, rejected seqs %v; want %d good and rejected [5 %d]", good, rejected, len(frames), len(frames)+1)
			}
		})
	}
}

func TestBootstrapHonoursCancelledContext(t *testing.T) {
	srv, err := New(fastServerOptions(6)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Bootstrap(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Bootstrap: %v", err)
	}
	// The failed attempt must not count as bootstrapped.
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		t.Fatalf("Bootstrap after cancelled attempt: %v", err)
	}
}

// TestBootstrapSideBySideParity: Bootstrap trains the DA-GAN and the
// baseline side by side, and each ends with the weights of a sequential run
// with the same seeds and frames — core.TrainDAGAN, then baseline.Fit — at
// one worker and at four.
func TestBootstrapSideBySideParity(t *testing.T) {
	const seed = 23
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tensor.SetParallelism(procs)
			defer tensor.SetParallelism(0)
			srv, err := New(fastServerOptions(seed)...)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			boot := srv.GenerateFrames(FullData, 80)
			if err := srv.Bootstrap(context.Background(), boot); err != nil {
				t.Fatal(err)
			}

			dagan := core.TrainDAGAN(boot, core.DownsampleEncoder(2), gan.Config{
				InputDim: core.EncodedDim(srv.scene, 2), Latent: 16, Hidden: []int{128, 48}, LR: 0.001, Seed: seed + 7,
			}, 1, 32)
			baseCfg := detect.YOLOConfig(srv.scene.H, srv.scene.W)
			baseCfg.Seed = seed + 9
			baseline := detect.NewGridDetector(baseCfg)
			baseline.Fit(detect.SamplesFromFrames(boot), 2, 16)

			for _, c := range []struct {
				name      string
				got, want []*nn.Network
			}{
				{"DA-GAN", []*nn.Network{srv.dagan.Enc, srv.dagan.Dec, srv.dagan.DZ, srv.dagan.DI}, []*nn.Network{dagan.Enc, dagan.Dec, dagan.DZ, dagan.DI}},
				{"baseline", []*nn.Network{srv.baseline.Net}, []*nn.Network{baseline.Net}},
			} {
				if got, want := weightsHash(c.got), weightsHash(c.want); got != want {
					t.Errorf("%s weights hash %016x after Bootstrap, %016x trained alone", c.name, got, want)
				}
			}
		})
	}
}

// weightsHash is the FNV-1a hash of every parameter's float64 bits.
func weightsHash(nets []*nn.Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, net := range nets {
		for _, p := range net.Params() {
			for _, v := range p.W.V {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// driftStream returns a deterministic 3-phase drifting stream drawn from
// srv's seeded generator: night, then day, then snow — enough distribution
// shift to exercise outliers, cluster births, and drift events.
func driftStream(srv *Server, perPhase int) []*Frame {
	var out []*Frame
	for _, sub := range []Subset{NightData, DayData, SnowData} {
		out = append(out, srv.GenerateFrames(sub, perPhase)...)
	}
	return out
}

// TestRunMatchesSequentialProcess is the facade-level determinism
// guarantee: sharded Run at 1, 4 and 8 workers yields results identical to
// sequential Process on an identically seeded server — detections, cluster
// assignments, drift events and stats. The kernels guarantee exact
// reproducibility regardless of partitioning (DESIGN.md §8).
func TestRunMatchesSequentialProcess(t *testing.T) {
	runMatchesSequential(t, 11, 60)
}

// TestBackendDeterminismAcrossWorkers is the same check on a second seed and
// a shorter stream, the case CI's race job runs by itself. The "float64"
// level names the precision everything computes in.
func TestBackendDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; CI's race job runs it by itself under -race")
	}
	t.Run("float64", func(t *testing.T) { runMatchesSequential(t, 17, 40) })
}

// runMatchesSequential runs a drift stream through sequential Process on
// one server built from seed, then through sharded Run at 1, 4 and 8
// workers on fresh servers, each a "workers=N" subtest, and fails on any
// fingerprint or stats difference.
func runMatchesSequential(t *testing.T, seed uint64, perPhase int) {
	// Reference: sequential Process on its own server.
	ref, err := New(fastServerOptions(seed)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	frames := driftStream(ref, perPhase)
	st, err := ref.OpenStream(context.Background(), StreamOptions{Name: "seq"})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(frames))
	for i, f := range frames {
		r, err := st.Process(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Fingerprint()
	}
	wantStats := ref.Stats()
	if wantStats.DriftEvents == 0 {
		t.Fatal("drift stream produced no drift events; the determinism test would be vacuous")
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, err := New(fastServerOptions(seed)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Bootstrap(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			frames := driftStream(srv, perPhase)
			stream, err := srv.OpenStream(context.Background(), StreamOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			in := make(chan *Frame)
			go func() {
				defer close(in)
				for _, f := range frames {
					in <- f
				}
			}()
			got := 0
			for res := range stream.Run(context.Background(), in) {
				if res.Seq != got {
					t.Fatalf("out-of-order result: seq %d at position %d", res.Seq, got)
				}
				if res.Frame != frames[got] {
					t.Fatalf("result %d carries the wrong frame", got)
				}
				if key := res.Fingerprint(); key != want[got] {
					t.Fatalf("frame %d diverged from sequential:\n got %s\nwant %s", got, key, want[got])
				}
				got++
			}
			if got != len(frames) {
				t.Fatalf("received %d/%d results", got, len(frames))
			}
			if stats := srv.Stats(); !reflect.DeepEqual(stats, wantStats) {
				t.Fatalf("stats diverged: got %+v want %+v", stats, wantStats)
			}
		})
	}
}

func TestRunContextCancellation(t *testing.T) {
	eachWindowSource(t, testRunContextCancellation)
}

func testRunContextCancellation(t *testing.T, srv *Server) {
	stream, err := srv.OpenStream(context.Background(), StreamOptions{Workers: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan *Frame)
	frames := srv.GenerateFrames(DayData, 8)
	out := stream.Run(ctx, in)

	// Deliver one frame, read its result, then cancel: the result channel
	// must close without the producer blocking forever.
	in <- frames[0]
	if _, ok := <-out; !ok {
		t.Fatal("first result missing")
	}
	cancel()
	for range out { // drain whatever was in flight; must terminate
	}
}

func TestRunExitsWhenStreamCloses(t *testing.T) {
	eachWindowSource(t, testRunExitsWhenStreamCloses)
}

func testRunExitsWhenStreamCloses(t *testing.T, srv *Server) {
	stream, err := srv.OpenStream(context.Background(), StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *Frame)
	out := stream.Run(context.Background(), in)
	in <- srv.GenerateFrames(DayData, 1)[0]
	if _, ok := <-out; !ok {
		t.Fatal("first result missing")
	}
	stream.Close()
	// The Run loop observes the closed stream on its next window; the
	// result channel must close even though `in` stays open.
	for range out {
	}
}

func TestQueryContextCancellation(t *testing.T) {
	srv := sharedServer(t)
	frames := srv.GenerateFrames(DayData, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Query(ctx, "SELECT COUNT(detections) FROM s USING MODEL yolo WHERE class='car'", frames); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Query: %v", err)
	}
}

func TestQueryOverOdinAndYolo(t *testing.T) {
	srv := sharedServer(t)
	frames := srv.GenerateFrames(DayData, 10)
	for _, model := range []string{"odin", "yolo"} {
		out, err := srv.Query(context.Background(),
			"SELECT COUNT(detections) FROM stream USING MODEL "+model+" WHERE class='car'", frames)
		if err != nil {
			t.Fatalf("model %s: %v", model, err)
		}
		if out.FramesScanned != 10 {
			t.Fatalf("model %s scanned %d", model, out.FramesScanned)
		}
	}
	if _, err := srv.Query(context.Background(), "SELECT bogus FROM", frames); err == nil {
		t.Fatal("bad SQL should error")
	}
}

func TestRegisterCustomModel(t *testing.T) {
	srv := sharedServer(t)
	srv.RegisterModel("oracle", func(f *Frame) []Detection {
		out := make([]Detection, len(f.Boxes))
		for i, b := range f.Boxes {
			out[i] = Detection{Box: b, Score: 1}
		}
		return out
	})
	frames := srv.GenerateFrames(DayData, 5)
	out, err := srv.Query(context.Background(), "SELECT COUNT(detections) FROM s USING MODEL oracle WHERE class='car'", frames)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, f := range frames {
		for _, b := range f.Boxes {
			if b.Class == ClassCar {
				want++
			}
		}
	}
	if out.Count != want {
		t.Fatalf("oracle count %d, want %d", out.Count, want)
	}
}

func TestConcurrentStreamsShareServer(t *testing.T) {
	srv, err := New(fastServerOptions(13)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	const cams, perCam = 3, 30
	camFrames := make([][]*Frame, cams)
	subsets := []Subset{NightData, DayData, SnowData}
	for c := range camFrames {
		camFrames[c] = srv.GenerateFrames(subsets[c], perCam)
	}
	var wg sync.WaitGroup
	for c := 0; c < cams; c++ {
		st, err := srv.OpenStream(context.Background(), StreamOptions{Name: fmt.Sprintf("cam-%d", c), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(st *Stream, frames []*Frame) {
			defer wg.Done()
			in := make(chan *Frame)
			go func() {
				defer close(in)
				for _, f := range frames {
					in <- f
				}
			}()
			n := 0
			for res := range st.Run(context.Background(), in) {
				if len(res.ModelsUsed) == 0 {
					t.Errorf("%s: frame %d served by no model", st.Name(), res.Seq)
				}
				n++
			}
			if n != perCam {
				t.Errorf("%s: got %d/%d results", st.Name(), n, perCam)
			}
		}(st, camFrames[c])
	}
	wg.Wait()
	if got := srv.Stats().Frames; got != cams*perCam {
		t.Fatalf("server saw %d frames, want %d", got, cams*perCam)
	}
}
