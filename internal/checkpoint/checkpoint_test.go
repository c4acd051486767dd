package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"odin/internal/core"
	"odin/internal/synth"
)

// bytesAllocated returns the heap bytes fn allocates, the fewest of up to
// five calls, stopping at the first call within limit. TotalAlloc counts
// the whole process, so an allocation by some other goroutine can land in
// one call's window, but not in every one; each retry starts from a GC.
func bytesAllocated(limit uint64, fn func()) uint64 {
	best := uint64(math.MaxUint64)
	for try := 0; try < 5 && best > limit; try++ {
		if try > 0 {
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestReadAllocatesWhatArrives: a payload length allocates nothing before
// the payload starts, at most presizeCap once it has, and a payload that
// does arrive in full still reads into one buffer of its own size.
func TestReadAllocatesWhatArrives(t *testing.T) {
	const claim = 3 << 30
	for _, tc := range []struct {
		name  string
		body  []byte
		limit uint64
	}{
		{"header only", header(Version, claim), 1 << 20},
		{"header and 100 bytes", append(header(Version, claim), make([]byte, 100)...), presizeCap + 1<<20},
	} {
		var err error
		runtime.GC()
		got := bytesAllocated(tc.limit, func() { _, _, err = Read(bytes.NewReader(tc.body)) })
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: got %v, want ErrTruncated", tc.name, err)
		}
		if got > tc.limit {
			t.Errorf("%s: a %d-byte stream declaring %d bytes allocated %d, want at most %d",
				tc.name, len(tc.body), uint64(claim), got, tc.limit)
		}
	}

	const n = 40 << 20 // a served scene's checkpoint is about 34 MB
	payload := bytes.Repeat([]byte{7}, n)
	runtime.GC()
	var body []byte
	got := bytesAllocated(n+1<<20, func() { body, _ = readPayload(bytes.NewReader(payload), n) })
	if !bytes.Equal(body, payload) {
		t.Fatal("readPayload returned other bytes than it read")
	}
	if got > n+1<<20 {
		t.Errorf("a %d-byte payload allocated %d bytes, want one buffer of its size", n, got)
	}
}

// FuzzCheckpointRead: whatever the bytes, Read never panics, fails only
// with one of the package's sentinels, and allocates at most presizeCap
// plus a small multiple of the stream.
func FuzzCheckpointRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, &Payload{Seed: 7}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:headerSize])
	f.Add(header(Version, 3<<30))
	f.Add(append(header(Version, 1<<32+1), 0))
	f.Add([]byte(Magic))
	f.Add(write(f, specialPayload()))
	bad := badLayouts(f)
	for _, name := range sortedNames(bad) {
		f.Add(bad[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(presizeCap + 8*len(data) + 1<<20)
		var err error
		if got := bytesAllocated(limit, func() { _, _, err = Read(bytes.NewReader(data)) }); got > limit {
			t.Fatalf("allocated %d bytes reading %d (limit %d)", got, len(data), limit)
		}
		if err != nil && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersionMismatch) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v is none of the sentinels", err)
		}
	})
}

// seal wraps a payload in an envelope of the given version with a valid
// CRC, as an older or a hostile writer would.
func seal(version uint32, body []byte) []byte {
	b := append(header(version, uint64(len(body))), body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// v2Body lays out a version 2 payload from its gob part and pixel section.
func v2Body(gobPart, section []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(gobPart)))
	return append(append(b, gobPart...), section...)
}

// split returns a version 2 envelope's gob part and pixel section.
func split(env []byte) (gobPart, section []byte) {
	body := env[headerSize : len(env)-4]
	g := 8 + binary.LittleEndian.Uint64(body)
	return body[8:g], body[g:]
}

func write(t testing.TB, p *Payload) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Write(&b, p); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func gobOf(t testing.TB, p *Payload) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(p); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// framesPayload returns a payload whose pipeline buffers n c×h×w frames
// over three clusters and rings n/4 more as outliers, no two pixels
// alike. One outlier shares its frame with a buffer, as the pipeline's
// do, one has no frame and one frame has no image.
func framesPayload(n, c, h, w int) *Payload {
	next := 0.0
	frame := func(i int) *synth.Frame {
		im := synth.NewImage(c, h, w)
		for j := range im.Pix {
			next++
			im.Pix[j] = next / (1 << 40)
		}
		return &synth.Frame{Index: i, Image: im, Boxes: []synth.Box{{Class: i % 3, X: 1, Y: 2, W: 3, H: 4}}}
	}
	p := &Payload{Seed: 7}
	bufs := map[int][]*synth.Frame{9: nil, 2: nil, 5: nil}
	for i := 0; i < n; i++ {
		id := []int{9, 2, 5}[i%3]
		bufs[id] = append(bufs[id], frame(i))
	}
	bufs[5] = append(bufs[5], &synth.Frame{Index: -1})
	p.Pipeline.Manager.Buffers = bufs
	p.Pipeline.Outliers = []core.OutlierState{{Frame: bufs[2][0], Latent: []float64{1, 2}}, {Latent: []float64{3}}}
	for i := 0; i < n/4; i++ {
		p.Pipeline.Outliers = append(p.Pipeline.Outliers, core.OutlierState{Frame: frame(n + i), Latent: []float64{float64(i)}})
	}
	return p
}

// specials are the float64 values whose bits a codec is likeliest to
// bend: NaNs with payloads and either sign, signed zeros and infinities,
// the smallest subnormal and the largest finite value.
var specials = []float64{
	math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0x7ff0_0000_0000_0001),
	math.Float64frombits(0xfff8_0000_0000_0042), math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
}

// specialPayload is framesPayload with specials in its first buffered
// frame and its last outlier.
func specialPayload() *Payload {
	p := framesPayload(6, 3, 2, 2)
	copy(p.Pipeline.Manager.Buffers[2][0].Image.Pix, specials)
	copy(p.Pipeline.Outliers[len(p.Pipeline.Outliers)-1].Frame.Image.Pix, specials[2:])
	return p
}

// pixels returns every frame's pixels in section order.
func pixels(p *Payload) [][]float64 {
	var pix [][]float64
	eachFrame(&p.Pipeline, func(f **synth.Frame) error {
		pix = append(pix, (*f).Image.Pix)
		return nil
	})
	return pix
}

// TestPixelsRoundTripExactly: every pixel comes back from Write→Read with
// the same bits, special values included, each frame in its own array;
// the other fields come back equal, and Write edits nothing it is given.
func TestPixelsRoundTripExactly(t *testing.T) {
	p := specialPayload()
	before := pixels(p)
	first := p.Pipeline.Manager.Buffers[2][0]
	env := write(t, p)
	if got := pixels(p); len(got) != len(before) || &got[0][0] != &before[0][0] ||
		p.Pipeline.Manager.Buffers[2][0] != first || p.Pipeline.Outliers[0].Frame != first {
		t.Fatal("Write changed the caller's frames")
	}

	q, _, err := Read(bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	got := pixels(q)
	if len(got) != len(before) {
		t.Fatalf("read %d frames with pixels, wrote %d", len(got), len(before))
	}
	for i := range before {
		if len(got[i]) != len(before[i]) || cap(got[i]) != len(got[i]) {
			t.Fatalf("frame %d: %d pixels (capacity %d), want %d in an array of its own", i, len(got[i]), cap(got[i]), len(before[i]))
		}
		for j := range before[i] {
			if a, b := math.Float64bits(got[i][j]), math.Float64bits(before[i][j]); a != b {
				t.Fatalf("frame %d pixel %d: bits %016x, want %016x", i, j, a, b)
			}
		}
		if i > 0 && &got[i][0] == &got[i-1][0] {
			t.Fatalf("frames %d and %d share a pixel array", i-1, i)
		}
	}
	// The same payload without specials compares field for field: NaN is
	// not DeepEqual to itself.
	p, q = framesPayload(6, 3, 2, 2), nil
	if q, _, err = Read(bytes.NewReader(write(t, p))); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Pipeline.Manager.Buffers, q.Pipeline.Manager.Buffers) ||
		!reflect.DeepEqual(p.Pipeline.Outliers, q.Pipeline.Outliers) {
		t.Fatal("frames differ after Write→Read")
	}
}

// TestReadVersion1: the all-gob layout earlier writers produced reads as
// the same payload; a version no writer produced is ErrVersionMismatch.
func TestReadVersion1(t *testing.T) {
	p := framesPayload(9, 3, 4, 5)
	v1, _, err := Read(bytes.NewReader(seal(1, gobOf(t, p))))
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := Read(bytes.NewReader(write(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("a version 1 and a version 2 envelope of one payload read differently")
	}
	for _, v := range []uint32{0, 3} {
		if _, _, err := Read(bytes.NewReader(seal(v, gobOf(t, p)))); !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("version %d: got %v, want ErrVersionMismatch", v, err)
		}
	}
}

// TestWriteRefusesMisshapenFrame: a frame whose pixel count is not C·H·W
// would shift every later frame's pixels; Write refuses it and writes
// nothing.
func TestWriteRefusesMisshapenFrame(t *testing.T) {
	for name, im := range map[string]*synth.Image{
		"short":           {C: 3, H: 2, W: 2, Pix: make([]float64, 11)},
		"negative dims":   {C: -1, H: -2, W: 3, Pix: make([]float64, 6)},
		"pixels, no dims": {Pix: make([]float64, 1)},
	} {
		p := framesPayload(3, 3, 2, 2)
		p.Pipeline.Manager.Buffers[9][0].Image = im
		var b bytes.Buffer
		if err := Write(&b, p); err == nil || b.Len() != 0 {
			t.Errorf("%s: Write wrote %d bytes, error %v; want an error and nothing written", name, b.Len(), err)
		}
	}
}

// badLayouts are CRC-valid version 2 envelopes whose payload does not add
// up, by name.
func badLayouts(t testing.TB) map[string][]byte {
	gobPart, section := split(write(t, framesPayload(6, 3, 2, 2)))
	ringed := func(im synth.Image) *Payload {
		p := &Payload{}
		p.Pipeline.Outliers = []core.OutlierState{{Frame: &synth.Frame{Image: &im}}}
		return p
	}
	huge, negative := ringed(synth.Image{C: 1 << 22, H: 1 << 21, W: 1 << 21}), ringed(synth.Image{C: -3, H: -2, W: 1})
	inline := ringed(synth.Image{C: 1, H: 1, W: 2, Pix: []float64{1, 2}})
	pastEnd := v2Body(gobPart, section)
	binary.LittleEndian.PutUint64(pastEnd, uint64(len(pastEnd)-8+1))
	return map[string][]byte{
		"gob length past the payload":     seal(2, pastEnd),
		"no gob length":                   seal(2, []byte{1, 2, 3}),
		"frame past the section":          seal(2, v2Body(gobPart, section[:len(section)-8])),
		"frame past a ragged section":     seal(2, v2Body(gobPart, section[:len(section)-1])),
		"surplus section bytes":           seal(2, v2Body(gobPart, append(section[:len(section):len(section)], make([]byte, 8)...))),
		"C·H·W overflows":                 seal(2, v2Body(gobOf(t, huge), make([]byte, 16))),
		"negative dimensions":             seal(2, v2Body(gobOf(t, negative), make([]byte, 48))),
		"inline pixels":                   seal(2, v2Body(gobOf(t, inline), make([]byte, 16))),
		"bytes after the gob payload":     seal(2, v2Body(append(gobPart[:len(gobPart):len(gobPart)], 0), section)),
		"version 1 with a version 2 body": seal(1, v2Body(gobPart, section)),
	}
}

func sortedNames(m map[string][]byte) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestReadRejectsBadLayouts: a version 2 payload whose gob length, frame
// sizes and pixel section do not add up is ErrCorrupt, CRC or not.
func TestReadRejectsBadLayouts(t *testing.T) {
	for name, env := range badLayouts(t) {
		if _, _, err := Read(bytes.NewReader(env)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestWriteAndReadAllocations: Write streams the pixels, so a payload of
// 16 MB of pixels allocates under a quarter of them; Read holds the
// payload once and each frame's pixels once, and little else.
func TestWriteAndReadAllocations(t *testing.T) {
	p := framesPayload(432, 3, 27, 48) // 432 buffered + 108 ringed frames: 16.8 MB of pixels
	pixBytes := uint64(0)
	for _, px := range pixels(p) {
		pixBytes += 8 * uint64(len(px))
	}
	if pixBytes < 16<<20 {
		t.Fatalf("the payload holds %d bytes of pixels, want at least 16 MB", pixBytes)
	}
	runtime.GC()
	var err error
	limit := pixBytes / 4
	if got := bytesAllocated(limit, func() { err = Write(io.Discard, p) }); err != nil || got >= limit {
		t.Errorf("Write of %d pixel bytes allocated %d (error %v), want under %d", pixBytes, got, err, limit)
	}

	env := write(t, p)
	runtime.GC()
	limit = uint64(len(env)) + pixBytes + 8<<20
	if got := bytesAllocated(limit, func() { _, _, err = Read(bytes.NewReader(env)) }); err != nil || got > limit {
		t.Errorf("Read of a %d-byte checkpoint allocated %d (error %v), want at most %d", len(env), got, err, limit)
	}
}

// BenchmarkCheckpoint writes, then reads, a checkpoint whose pipeline
// holds 1 000 rendered night frames, the bulk of a served scene's state.
func BenchmarkCheckpoint(b *testing.B) {
	frames := synth.NewSceneGen(1, synth.DefaultSceneConfig()).Dataset(synth.NightData, 1000)
	p := &Payload{Seed: 1}
	p.Pipeline.Manager.Buffers = map[int][]*synth.Frame{0: frames[:400], 1: frames[400:800]}
	for _, f := range frames[800:] {
		p.Pipeline.Outliers = append(p.Pipeline.Outliers, core.OutlierState{Frame: f, Latent: make([]float64, 16)})
	}
	env := write(b, p)
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(env)))
		b.ReportAllocs()
		for b.Loop() {
			if err := Write(io.Discard, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(env)))
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := Read(bytes.NewReader(env)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
