package serveapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"odin/internal/synth"
)

// sameRequest reports the first difference between two decoded requests,
// floats compared by bit pattern. Nil and empty slices are the same thing
// on this wire.
func sameRequest(got, want QueryRequest) error {
	if got.SQL != want.SQL {
		return fmt.Errorf("sql %q, want %q", got.SQL, want.SQL)
	}
	if len(got.Frames) != len(want.Frames) {
		return fmt.Errorf("%d frames, want %d", len(got.Frames), len(want.Frames))
	}
	bits := math.Float64bits
	for i, g := range got.Frames {
		w := want.Frames[i]
		if g.Index != w.Index || g.C != w.C || g.H != w.H || g.W != w.W ||
			g.Time != w.Time || g.Weather != w.Weather || g.Location != w.Location {
			return fmt.Errorf("frame %d: scalars %+v, want %+v", i, g, w)
		}
		if len(g.Pix) != len(w.Pix) {
			return fmt.Errorf("frame %d: %d pixels, want %d", i, len(g.Pix), len(w.Pix))
		}
		for k := range g.Pix {
			if bits(g.Pix[k]) != bits(w.Pix[k]) {
				return fmt.Errorf("frame %d pixel %d: %x, want %x", i, k, bits(g.Pix[k]), bits(w.Pix[k]))
			}
		}
		if len(g.Boxes) != len(w.Boxes) {
			return fmt.Errorf("frame %d: %d boxes, want %d", i, len(g.Boxes), len(w.Boxes))
		}
		for k, gb := range g.Boxes {
			wb := w.Boxes[k]
			if gb.Class != wb.Class || bits(gb.X) != bits(wb.X) || bits(gb.Y) != bits(wb.Y) ||
				bits(gb.W) != bits(wb.W) || bits(gb.H) != bits(wb.H) {
				return fmt.Errorf("frame %d box %d: %+v, want %+v", i, k, gb, wb)
			}
		}
	}
	return nil
}

// synthBody marshals n frames of sub the way every client of the wire does.
func synthBody(tb testing.TB, sub synth.Subset, n int, sql string) []byte {
	tb.Helper()
	frames := synth.NewSceneGen(1, synth.DefaultSceneConfig()).Dataset(sub, n)
	req := QueryRequest{SQL: sql}
	for _, f := range frames {
		req.Frames = append(req.Frames, FromFrame(f))
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// numbersBody spells a 1×1×len(tokens) frame whose pixels are tokens.
func numbersBody(tokens ...string) string {
	return fmt.Sprintf(`{"frames":[{"c":1,"h":1,"w":%d,"pix":[%s]}]}`, len(tokens), strings.Join(tokens, ","))
}

// fusedBody spells tokens as pixels in the middle of an array, where pix
// tries its fused step on each: one pixel before them (the first never
// takes it) and more than pixRoom bytes after them.
func fusedBody(tokens ...string) string {
	return numbersBody(slices.Concat([]string{"0"}, tokens, slices.Repeat([]string{"1"}, 16))...)
}

// accepted is the table of bodies the decoder takes; the differential test
// and the fuzz seeds share it.
var accepted = map[string]string{
	"empty":        `{"frames":[]}`,
	"no frames":    `{}`,
	"null frames":  `{"frames":null}`,
	"sql only":     `{"sql":"SELECT COUNT(detections) FROM stream USING MODEL odin"}`,
	"one frame":    `{"frames":[{"index":7,"c":1,"h":2,"w":2,"pix":[0,0.25,0.5,1],"time":2,"weather":1,"location":3}]}`,
	"float edges":  numbersBody("-0", "0", "-0.0", "5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "-1.7976931348623157e308", "1E5", "1e+5", "1e5", "1e-5", "0.1e1", "1e-999", "123456789012345678901234567890", "0.30000000000000004", "0.1000000000000000055511151231257827021181583404541015625"),
	"boxes":        `{"frames":[{"c":1,"h":1,"w":1,"pix":[0.5],"boxes":[{"class":2,"x":41,"y":18.4,"w":2.4,"h":6.6},{"class":0,"x":-0,"y":1e-7,"w":4.8999999999999995,"h":3.0250000000000004}]}]}`,
	"empty boxes":  `{"frames":[{"c":1,"h":1,"w":1,"pix":[1],"boxes":[]},{"c":1,"h":1,"w":1,"pix":[1],"boxes":null}]}`,
	"key order":    `{"frames":[{"location":1,"pix":[1,2,3,4,5,6],"boxes":[{"h":4,"w":3,"y":2,"x":1,"class":5}],"w":3,"time":1,"h":2,"index":-4,"c":1,"weather":2}],"sql":"x"}`,
	"whitespace":   " {\n\t\"sql\" : \"q\" ,\r\n \"frames\" : [ { \"c\" : 1 , \"h\" : 1 , \"w\" : 2 , \"pix\" : [ 1 , 2 ] } ] } \n",
	"unknown keys": `{"version":2,"meta":{"a":[1,{"b":null}],"s":"é\n","t":true,"f":false,"n":-1.5e+3},"frames":[{"c":1,"h":1,"w":1,"camera":"north \"gate\"","pix":[0.5],"tags":[]}],"":0}`,
	"sql escapes":  `{"sql":"a\"b\\c\/d\b\f\n\r\téé😀 \ud800 \udc00\ud83d \ud83dx é 😀"}`,
	"sql bad utf8": "{\"sql\":\"a\xffb\xc3\"}",
	"int edges":    `{"frames":[{"index":-0,"c":1,"h":1,"w":1,"pix":[0],"time":9223372036854775807,"weather":-9223372036854775808}]}`,
	// The fused pixel step's edges: fraction lengths on both sides of each
	// word and of 19 digits, leading zeros that push a short significand
	// past 19 fraction digits, every shape near the one it takes,
	// whitespace, exponents, and 0.5-like tokens Eisel–Lemire leaves
	// half-way undecided.
	"fused lengths": fusedBody("0.7", "0.12345678", "0.1234567890123456", "0.12345678901234567",
		"0.1234567890123456789", "0.12345678901234567891", "0.123456789012345678901234", "0.9999999999999999999"),
	"fused leading zeros": fusedBody("0.0000000000000000001", "0.000000000000000000012", "0.00000123456789012345678",
		"0.000000000000000000000001", "0.0024711858062433315", "0.0000000000000000000"),
	"fused zeros":       fusedBody("0", "-0", "0.0", "1", "0", "0.000"),
	"fused whitespace":  fusedBody("0.25 ", "0 ", " 0.125", "0.1234567890123456\n", "\t0"),
	"fused exponents":   fusedBody("0e0", "0.5e1", "0.123E-2", "0.1e+1", "0.30000000000000004e0", "0E5"),
	"fused half-way":    fusedBody("0.5", "0.25", "0.375", "0.0625", "0.5000000000000000277", "0.9999999999999999444888487687421729788184165954589843750"),
	"fused near end 26": numbersBody("0", "0.12345678901234567", "1"),
	"fused near end 27": numbersBody("0", "0.123456789012345678", "1"),
	"fused near end 28": numbersBody("0", "0.1234567890123456789", "1"),
	"fused last pixel":  numbersBody("0", "0.1", "0", "0.12345678901234567"),
}

// rejected is the table of bodies the decoder refuses. encoding/json
// refuses most of them too; where it does not (shape, null pixel, key
// spelling, duplicates) the decoder is stricter on purpose.
var rejected = map[string]string{
	"short pix":            `{"frames":[{"c":3,"h":27,"w":48,"pix":[0.1,0.2,0.3]}]}`,
	"long pix":             `{"frames":[{"c":1,"h":1,"w":2,"pix":[1,2,3]}]}`,
	"long pix, shape last": `{"frames":[{"pix":[1,2,3],"c":1,"h":1,"w":2}]}`,
	"huge shape":           `{"frames":[{"c":1000,"h":1000,"w":1000,"pix":[0.1,0.2,0.3]}]}`,
	"overflowing shape":    `{"frames":[{"c":3037000500,"h":3037000500,"w":3037000500,"pix":[1]}]}`,
	"zero dimension":       `{"frames":[{"c":0,"h":1,"w":1,"pix":[]}]}`,
	"negative dimension":   `{"frames":[{"c":-1,"h":-1,"w":1,"pix":[1]}]}`,
	"no shape":             `{"frames":[{"pix":[1]}]}`,
	"no pix":               `{"frames":[{"c":1,"h":1,"w":1}]}`,
	"NaN":                  numbersBody("NaN"),
	"Infinity":             numbersBody("Infinity"),
	"-Infinity":            numbersBody("-Infinity"),
	"hex float":            numbersBody("0x1p-2"),
	"underscore":           numbersBody("1_0"),
	"plus sign":            numbersBody("+1"),
	"leading zero":         numbersBody("01"),
	"negative leading 0":   numbersBody("-01"),
	"no integer part":      numbersBody(".5"),
	"no fraction":          numbersBody("5."),
	"no exponent":          numbersBody("1e"),
	"signed no exponent":   numbersBody("1e+"),
	"bare minus":           numbersBody("-"),
	"overflow":             numbersBody("1e999"),
	"null pixel":           numbersBody("null"),
	"string pixel":         numbersBody(`"1"`),
	"true pixel":           numbersBody("true"),
	"truncated array":      `{"frames":[{"c":1,"h":1,"w":3,"pix":[1,2`,
	"truncated, pix first": `{"frames":[{"pix":[1,2`,
	"truncated object":     `{"frames":[{"c":1,"h":1,"w":1,"pix":[1]}`,
	"point, no digits":     fusedBody("0."),
	"two leading zeros":    fusedBody("00.5"),
	"letter after digits":  fusedBody("0.1x"),
	"trailing comma":       `{"frames":[{"c":1,"h":1,"w":2,"pix":[1,2,]}]}`,
	"missing comma":        `{"frames":[{"c":1,"h":1,"w":2,"pix":[1 2]}]}`,
	"trailing bytes":       `{"frames":[]}x`,
	"second object":        `{"frames":[]}{"frames":[]}`,
	"trailing NUL":         "{}\x00", // the fuzzer's first find, from when peek spelled end of input as 0
	"empty body":           ``,
	"top-level array":      `[]`,
	"top-level null":       `null`,
	"null sql":             `{"sql":null}`,
	"number sql":           `{"sql":5}`,
	"object frames":        `{"frames":{}}`,
	"float dimension":      `{"frames":[{"c":1.0,"h":1,"w":1,"pix":[1]}]}`,
	"exponent dimension":   `{"frames":[{"c":1e0,"h":1,"w":1,"pix":[1]}]}`,
	"string dimension":     `{"frames":[{"c":"1","h":1,"w":1,"pix":[1]}]}`,
	"int overflow":         `{"frames":[{"index":9223372036854775808,"c":1,"h":1,"w":1,"pix":[1]}]}`,
	"capital key":          `{"Frames":[]}`,
	"capital frame key":    `{"frames":[{"c":1,"h":1,"w":1,"PIX":[1]}]}`,
	"folded key":           "{\"ſql\":\"x\"}", // ſql: encoding/json folds it onto "sql"
	"escaped key":          `{"fr\u0061mes":[]}`,
	"duplicate key":        `{"frames":[],"frames":[]}`,
	"duplicate pix":        `{"frames":[{"c":1,"h":1,"w":1,"pix":[1],"pix":[1]}]}`,
	"partial box":          `{"frames":[{"c":1,"h":1,"w":1,"pix":[1],"boxes":[{"class":1}]}]}`,
	"control in string":    "{\"sql\":\"a\nb\"}",
	"bad escape":           `{"sql":"\x"}`,
	"short \\u":            `{"sql":"\u12"}`,
	"unterminated string":  `{"sql":"abc`,
	"unterminated escape":  `{"sql":"abc\`,
	"bad literal":          `{"x":tru}`,
	"bad unknown value":    `{"x":[1,}`,
	"unknown bad number":   `{"x":01}`,
	"deep unknown":         `{"x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`,
	"unquoted key":         `{frames:[]}`,
	"missing colon":        `{"frames" []}`,
}

// TestDecodeRequestMatchesEncodingJSON is the differential table: whatever
// the decoder accepts, encoding/json decodes to the same request, bit for
// bit — real frames of every subset, and the number spellings, escapes and
// layouts real clients do not send but the grammar allows.
func TestDecodeRequestMatchesEncodingJSON(t *testing.T) {
	bodies := make(map[string][]byte)
	for name, body := range accepted {
		bodies[name] = []byte(body)
	}
	for _, sub := range synth.AllSubsets {
		bodies["synth "+sub.String()] = synthBody(t, sub, 3, `SELECT COUNT(detections) FROM stream WHERE class='car'`)
	}
	for name, body := range bodies {
		got, err := DecodeRequest(body)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var want QueryRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Errorf("%s: accepted, but encoding/json says %v", name, err)
			continue
		}
		if err := sameRequest(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// The table is only worth its name if the interesting values are in it.
	got, err := DecodeRequest([]byte(accepted["float edges"]))
	if err != nil {
		t.Fatal(err)
	}
	pix := got.Frames[0].Pix
	if !math.Signbit(pix[0]) || pix[0] != 0 {
		t.Errorf("-0 decoded as %v", pix[0])
	}
	if pix[3] != math.SmallestNonzeroFloat64 || pix[6] != math.MaxFloat64 {
		t.Errorf("5e-324, MaxFloat64 decoded as %v, %v", pix[3], pix[6])
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	for name, body := range rejected {
		req, err := DecodeRequest([]byte(body))
		if err == nil {
			t.Errorf("%s: accepted %q as %+v", name, body, req)
		}
	}
	// Errors inside a frame name its position in the batch.
	_, err := DecodeRequest([]byte(`{"frames":[{"c":1,"h":1,"w":1,"pix":[1]},{"c":1,"h":1,"w":2,"pix":[1]}]}`))
	if err == nil || !strings.Contains(err.Error(), "frame 1:") {
		t.Errorf("short second frame: error %v does not name frame 1", err)
	}
}

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

// TestDecodeRequestAllocations pins what a decode may allocate: per frame
// the Pix slice and a small constant (the box and frame slices growing),
// nothing proportional to the length of the body.
func TestDecodeRequestAllocations(t *testing.T) {
	const frames = 4
	body := synthBody(t, synth.NightData, frames, "")
	pixBytes := 8 * 3 * 27 * 48

	const runs = 20
	// The allocator rounds Pix's 31 104 bytes up to its 32 KiB size class.
	const limit = 32<<10 + 1024
	runtime.GC()
	got := bytesAllocated(limit*runs*frames, func() {
		for range runs {
			if _, err := DecodeRequest(body); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perFrame := got / (runs * frames); perFrame > limit {
		t.Errorf("%d bytes allocated per frame, want at most %d (Pix is %d; the body is %d per frame)",
			perFrame, limit, pixBytes, len(body)/frames)
	}
	if allocs := testing.AllocsPerRun(runs, func() { DecodeRequest(body) }) / frames; allocs > 8 {
		t.Errorf("%.1f allocations per frame, want at most 8", allocs)
	}

	// A declared shape never costs more than the body that declares it.
	huge := []byte(rejected["huge shape"])
	runtime.GC()
	if got := bytesAllocated(4096, func() {
		if _, err := DecodeRequest(huge); err == nil {
			t.Fatal("huge shape accepted")
		}
	}); got > 4096 {
		t.Errorf("a 10⁹-pixel shape with three pixels allocated %d bytes", got)
	}
}

// TestReadRequest covers the pooled reader: bodies larger than the
// presize, an unknown length, reuse across calls, and a failing reader.
func TestReadRequest(t *testing.T) {
	small := []byte(accepted["one frame"])
	large := synthBody(t, synth.DayData, 20, "q") // past bodyPresize
	if len(large) <= bodyPresize {
		t.Fatalf("large body is only %d bytes", len(large))
	}
	for _, body := range [][]byte{large, small, large, small} {
		for _, size := range []int64{int64(len(body)), -1, 3} {
			// iotest.OneByteReader would take minutes; a reader that
			// returns short, odd-sized chunks exercises the same loop.
			got, err := ReadRequest(&chunkReader{b: body, n: 4099}, size)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := DecodeRequest(body)
			if err := sameRequest(got, want); err != nil {
				t.Fatal(err)
			}
		}
	}
	boom := fmt.Errorf("boom")
	if _, err := ReadRequest(io.MultiReader(bytes.NewReader(small[:10]), errReader{boom}), -1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("failing reader: %v", err)
	}
}

type chunkReader struct {
	b []byte
	n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.b)
	r.b = r.b[n:]
	return n, nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// FuzzDecodeRequest: the decoder never panics, never allocates more than
// a small multiple of the body, and never accepts what encoding/json
// would refuse or would decode differently.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range accepted {
		f.Add([]byte(body))
	}
	for _, body := range rejected {
		f.Add([]byte(body))
	}
	f.Add(synthBody(f, synth.NightData, 4, ""))
	f.Fuzz(func(t *testing.T, body []byte) {
		var got QueryRequest
		var err error
		// Worst case is a batch of one-pixel frames: ~100 bytes of Frame
		// for ~30 bytes of text, times the slack append leaves behind.
		limit := uint64(32*len(body) + 8192)
		if alloc := bytesAllocated(limit, func() { got, err = DecodeRequest(body) }); alloc > limit {
			t.Fatalf("allocated %d bytes decoding %d (limit %d)", alloc, len(body), limit)
		}
		if err != nil {
			return
		}
		var want QueryRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("accepted %q, but encoding/json says %v", body, err)
		}
		if err := sameRequest(got, want); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
	})
}

// BenchmarkDecodeRequest is the layer number for the request path: a
// 4-frame body (what bench/'s http_2cam posts) through the decoder the
// server used to use and the one it uses now. Night, day and snow pixels
// split differently between the Clinger and Eisel–Lemire tiers.
func BenchmarkDecodeRequest(b *testing.B) {
	subsets := []struct {
		name string
		sub  synth.Subset
	}{{"night", synth.NightData}, {"day", synth.DayData}, {"snow", synth.SnowData}}
	decoders := []struct {
		name   string
		decode func([]byte) error
	}{
		{"encoding_json", func(body []byte) error {
			var req FramesRequest
			return json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		}},
		{"serveapi", func(body []byte) error {
			_, err := ReadRequest(bytes.NewReader(body), int64(len(body)))
			return err
		}},
	}
	for _, dec := range decoders {
		b.Run(dec.name, func(b *testing.B) {
			for _, s := range subsets {
				body := synthBody(b, s.sub, 4, "")
				b.Run(s.name, func(b *testing.B) {
					b.SetBytes(int64(len(body)))
					b.ReportAllocs()
					for b.Loop() {
						if err := dec.decode(body); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
