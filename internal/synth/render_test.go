package synth

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"odin/internal/tensor"
)

// hashFrames folds every frame's index, domain, pixels and boxes, then the
// generator's final state, into one FNV-64a digest.
func hashFrames(frames []*Frame, st GenState) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	for _, f := range frames {
		put(uint64(f.Index))
		put(uint64(f.Domain.Time)<<32 | uint64(f.Domain.Weather)<<16 | uint64(f.Domain.Location))
		for _, v := range f.Image.Pix {
			putF(v)
		}
		put(uint64(len(f.Boxes)))
		for _, bx := range f.Boxes {
			put(uint64(bx.Class))
			putF(bx.X)
			putF(bx.Y)
			putF(bx.W)
			putF(bx.H)
		}
	}
	put(st.RNG)
	put(uint64(st.N))
	return h.Sum64()
}

// TestDatasetPinned pins the renderer: every pixel, box, frame index and
// the generator's state after Dataset, over every subset and several seeds
// (two Dataset calls a generator, so the second starts mid-stream). The
// digest was taken from the serial renderer that drew each frame's noise
// inline; any change to a drawn value, or to the order draws are taken in,
// moves it.
func TestDatasetPinned(t *testing.T) {
	const want = uint64(0x19b6fb4582804bf2)
	h := fnv.New64a()
	var b [8]byte
	for seed := uint64(1); seed <= 6; seed++ {
		for _, sub := range AllSubsets {
			g := NewSceneGen(seed, DefaultSceneConfig())
			first := g.Dataset(sub, 7)
			frames := append(first, g.Dataset(sub, 25)...)
			binary.LittleEndian.PutUint64(b[:], hashFrames(frames, g.State()))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("rendered frames hash to %#016x, pinned %#016x", got, want)
	}
}

// TestDatasetMatchesGenerateSubset: Dataset renders exactly what as many
// GenerateSubset calls would, and leaves the generator in the same state,
// whatever the worker count.
func TestDatasetMatchesGenerateSubset(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, par := range []int{1, 2, 8} {
		tensor.SetParallelism(par)
		for _, sub := range AllSubsets {
			name := fmt.Sprintf("parallelism=%d/%v", par, sub)
			seed := uint64(40 + par)
			ref := NewSceneGen(seed, DefaultSceneConfig())
			var want []*Frame
			for i := 0; i < 19; i++ {
				want = append(want, ref.GenerateSubset(sub))
			}
			g := NewSceneGen(seed, DefaultSceneConfig())
			got := g.Dataset(sub, 19)
			if g.State() != ref.State() {
				t.Fatalf("%s: state %+v after Dataset, %+v after GenerateSubset", name, g.State(), ref.State())
			}
			for i := range want {
				if hashFrames(got[i:i+1], GenState{}) != hashFrames(want[i:i+1], GenState{}) {
					t.Fatalf("%s: frame %d differs from GenerateSubset's", name, i)
				}
			}
		}
	}
}

// TestDatasetNonPositive: a request for no frames, or a negative number,
// renders nothing and leaves the generator where it was.
func TestDatasetNonPositive(t *testing.T) {
	g := NewSceneGen(3, DefaultSceneConfig())
	st := g.State()
	for _, n := range []int{0, -1, -100} {
		if got := g.Dataset(FullData, n); len(got) != 0 {
			t.Fatalf("Dataset(n=%d) returned %d frames", n, len(got))
		}
	}
	if g.State() != st {
		t.Fatal("Dataset with n <= 0 moved the generator")
	}
}

var sinkFrames []*Frame

// BenchmarkDataset renders a batch of night frames the size of the
// repository benchmark's replay batch.
func BenchmarkDataset(b *testing.B) {
	g := NewSceneGen(1, DefaultSceneConfig())
	b.ReportAllocs()
	for b.Loop() {
		sinkFrames = g.Dataset(NightData, 64)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(64*b.N), "us/frame")
}
