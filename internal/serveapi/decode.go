package serveapi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Field names of the three objects the decoder knows, in the order the
// key switches below number them.
var (
	requestFields = []string{"sql", "frames"}
	frameFields   = []string{"index", "c", "h", "w", "pix", "boxes", "time", "weather", "location"}
	boxFields     = []string{"class", "x", "y", "w", "h"}
)

// maxSkipDepth bounds the nesting of a value under an unknown key. Unknown
// keys are skipped as a forward-compatibility courtesy; the recursion that
// validates them must not be something a body can drive arbitrarily deep.
// (encoding/json gives up at 10000; stricter is allowed, looser is not.)
const maxSkipDepth = 32

// DecodeRequest parses the body of a frame-bearing request —
// {"sql"?, "frames":[{index,c,h,w,pix,boxes?,time,weather,location}]}, the
// shared shape of FramesRequest, QueryRequest and the execute body — in one
// pass, without reflection. Keys may come in any order, unknown keys are
// skipped (their values still have to be valid JSON), and nothing in the
// result aliases body.
//
// Every number is checked against the JSON grammar and converted in the
// same scan (see float: an exact division, Eisel–Lemire, or strconv for
// what neither takes), each conversion correctly rounded, so an accepted
// body decodes to exactly what encoding/json would have produced, bit for
// bit. The decoder is stricter than encoding/json,
// never looser: keys match in exact case only (a key that differs from a
// known one just in case is an error, not an unknown key), a known key may
// appear once per object, null is accepted for "frames" and "boxes" only,
// the top-level value must be an object, and every frame must declare
// positive c, h, w with exactly c·h·w pixels. Pix is allocated from the
// declared shape only when the bytes that remain could hold that many
// numbers, so a declared shape never costs more memory than the body that
// declares it.
func DecodeRequest(body []byte) (QueryRequest, error) {
	d := decoder{b: body, frame: -1}
	var req QueryRequest
	d.expect('{')
	var seen uint
	for n := 0; d.more(n, '}'); n++ {
		switch d.key(requestFields, &seen) {
		case 0:
			req.SQL = d.str()
		case 1:
			req.Frames = d.frames()
		default:
			d.skip(0)
		}
	}
	if d.peek() >= 0 {
		d.fail("trailing data after the request object")
	}
	if d.err != nil {
		return QueryRequest{}, d.err
	}
	return req, nil
}

// bodyPool recycles request-body buffers: at ~70 KB of JSON per frame a
// fresh buffer per request is most of what the serving path allocates.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const (
	// bodyPresize caps how much is allocated on the word of a
	// Content-Length header alone; past it the buffer grows as bytes
	// actually arrive.
	bodyPresize = 1 << 20
	// bodyKeep is the largest buffer that goes back to the pool, so one
	// huge request does not pin its buffer for the life of the process.
	bodyKeep = 4 << 20
)

// ReadRequest reads r to EOF into a pooled buffer and decodes it with
// DecodeRequest. size is the expected body length (a request's
// ContentLength), or -1 when unknown.
func ReadRequest(r io.Reader, size int64) (QueryRequest, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= bodyKeep {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	// bytes.MinRead spare, so the Read that reports EOF does not force a grow.
	buf.Grow(int(min(max(size, 0), bodyPresize)) + bytes.MinRead)
	if _, err := buf.ReadFrom(r); err != nil {
		return QueryRequest{}, fmt.Errorf("read request body: %w", err)
	}
	return DecodeRequest(buf.Bytes())
}

// decoder is a cursor over one request body. The first failure sticks:
// after it peek reports end of input, so every loop winds down without
// its own error plumbing.
type decoder struct {
	b     []byte
	i     int
	frame int // position in "frames" of the frame being decoded, -1 outside
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err != nil {
		return
	}
	where := ""
	if d.frame >= 0 {
		where = fmt.Sprintf("frame %d: ", d.frame)
	}
	d.err = fmt.Errorf("decode request: %s%s (offset %d)", where, fmt.Sprintf(format, args...), d.i)
}

// peek skips insignificant whitespace and returns the next byte without
// consuming it: -1 at the end of input or after a failure.
func (d *decoder) peek() int {
	if d.err != nil {
		return -1
	}
	for d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return int(c)
		}
	}
	return -1
}

func (d *decoder) expect(c byte) {
	if d.peek() != int(c) {
		d.fail("want %q", c)
		return
	}
	d.i++
}

// more steps through an array or object that ends in end: it reports
// whether another member follows the n already consumed, and consumes the
// comma before it or the closing byte.
func (d *decoder) more(n int, end byte) bool {
	c := d.peek()
	if c == int(end) {
		d.i++
		return false
	}
	if n > 0 {
		if c != ',' {
			d.fail("want ',' or %q", end)
			return false
		}
		d.i++
	}
	return d.err == nil
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return d.err == nil
}

func (d *decoder) literal(s string) {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		d.fail("invalid literal, want %s", s)
		return
	}
	d.i += len(s)
}

// key consumes `"name":` and returns the position of name in names, or -1
// for a key the caller should skip. seen collects the known keys of one
// object, as a bit set.
func (d *decoder) key(names []string, seen *uint) int {
	raw, simple := d.rawString()
	d.expect(':')
	if d.err != nil {
		return -1
	}
	if !simple {
		return d.foldedKey(unquote(raw), names)
	}
	for k, name := range names {
		if string(raw) == name {
			if *seen&(1<<k) != 0 {
				d.fail("duplicate key %q", name)
				return -1
			}
			*seen |= 1 << k
			return k
		}
	}
	return d.foldedKey(string(raw), names)
}

// foldedKey handles a key that is not byte-for-byte a known name.
// encoding/json would still match it to a field under Unicode case
// folding (or after unescaping it); skipping it as unknown would silently
// decode a different request, so it is an error instead.
func (d *decoder) foldedKey(key string, names []string) int {
	for _, name := range names {
		if strings.EqualFold(key, name) {
			d.fail("key %q must be spelled %q", key, name)
		}
	}
	return -1
}

// rawString consumes a string and returns the bytes between its quotes,
// escapes validated but not decoded. simple reports that those bytes are
// the string's value as they stand: ASCII with no escapes.
func (d *decoder) rawString() (raw []byte, simple bool) {
	if d.peek() != '"' {
		d.fail("want a string")
		return nil, false
	}
	d.i++
	start := d.i
	simple = true
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], simple
		case c == '\\':
			simple = false
			d.i++
			if d.i == len(d.b) {
				d.fail("unterminated string")
				return nil, false
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if hex4(d.b[d.i+1:]) < 0 {
					d.fail(`invalid \u escape in string`)
					return nil, false
				}
				d.i += 4
			default:
				d.fail("invalid escape in string")
				return nil, false
			}
		case c < 0x20:
			d.fail("control character in string")
			return nil, false
		case c >= utf8.RuneSelf:
			simple = false
		}
		d.i++
	}
	d.fail("unterminated string")
	return nil, false
}

// str consumes a string value. The result is a copy.
func (d *decoder) str() string {
	raw, simple := d.rawString()
	if simple {
		return string(raw)
	}
	return unquote(raw)
}

// hex4 decodes four hex digits at the head of b, -1 if they are not there.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote decodes the escapes of a string rawString validated, with
// encoding/json's rules: an unpaired surrogate escape and every byte of
// invalid UTF-8 become U+FFFD.
func unquote(raw []byte) string {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch raw[i] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune. Anything else is U+FFFD,
					// and what follows the escape decodes on its own.
					lo := rune(-1)
					if len(raw) > i+2 && raw[i+1] == '\\' && raw[i+2] == 'u' {
						lo = hex4(raw[i+3:])
					}
					if r = utf16.DecodeRune(r, lo); r != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default: // '"', '\\', '/'
				out = append(out, raw[i])
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r) // RuneError encodes as U+FFFD
			i += size
		}
	}
	return string(out)
}

// number is what scanning one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, learned on the way. Four
// fields at most keep it in registers; the token itself travels beside it
// (a fifth field sent every pixel through a stack copy).
type number struct {
	mant uint64 // the digits before any exponent read as one integer, modulo 2⁶⁴
	sig  int    // how many of those digits are significant: leading zeros are not
	frac int    // how many digits follow the point
	exp  bool   // an exponent follows
}

// number consumes one number token. What may follow a number is the
// caller's business: more rejects "01", "1_0" and "0x1p-2" at the byte
// after the token.
func (d *decoder) number() (tok []byte, n number) {
	d.peek()
	// The cursor lives in a local while the token is scanned: this loop
	// sees nine tenths of a body's bytes.
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	if i < len(b) && b[i] == '0' { // pixels in [0,1): not worth a word of digits
		if i++; i < len(b) && '0' <= b[i] && b[i] <= '9' {
			d.fail("number with a leading zero")
			return nil, number{}
		}
	} else if i, n.mant = digits(b, i, 0); i == first {
		d.fail("want a number")
		return nil, number{}
	} else {
		n.sig = i - first
	}
	if i < len(b) && b[i] == '.' {
		first = i + 1
		lead := first
		if n.sig == 0 { // "0." so far: the fraction's leading zeros are not significant
			for lead < len(b) && b[lead] == '0' {
				lead++
			}
		}
		if i, n.mant = digits(b, lead, n.mant); i == first {
			d.fail("number without digits after the point")
			return nil, number{}
		}
		n.frac = i - first
		n.sig += i - lead
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		n.exp = true
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		first = i
		if i, _ = digits(b, first, 0); i == first {
			d.fail("number without digits in the exponent")
			return nil, number{}
		}
	}
	d.i = i
	return b[start:i], n
}

// digits returns the end of the run of decimal digits at b[i:], and mant
// with those digits appended to it, modulo 2⁶⁴. Eight bytes are one
// little-endian word: a word of digits costs one check and three
// multiplies, and the word the run ends in contributes its leading digits
// the same way.
func digits(b []byte, i int, mant uint64) (int, uint64) {
	for len(b)-i >= 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		// A byte's top bit is set where it is below '0' (the borrow) or
		// above '9' (the carry, or the byte itself). Below the first such
		// byte nothing borrows or carries, so the lowest flag is exact.
		stop := ((w + 0x4646464646464646) | (w - 0x3030303030303030)) & 0x8080808080808080
		if stop != 0 {
			k := bits.TrailingZeros64(stop) >> 3
			// Shifting the k digits to the top of the word fills the
			// leading bytes with zeros, which do not change the value.
			return i + k, mant*pow10u[k] + eightDigits((w-0x3030303030303030)<<(64-8*k))
		}
		mant = mant*1e8 + eightDigits(w-0x3030303030303030)
		i += 8
	}
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		mant = mant*10 + uint64(b[i]-'0')
		i++
	}
	return i, mant
}

// eightDigits reads a word of eight digit values, the first in the low
// byte, as one decimal number: each step multiplies a pair of neighbouring
// lanes into one lane twice as wide.
func eightDigits(w uint64) uint64 {
	w = (w * (10<<8 + 1)) >> 8 & 0x00FF00FF00FF00FF
	w = (w * (100<<16 + 1)) >> 16 & 0x0000FFFF0000FFFF
	return (w * (10000<<32 + 1)) >> 32
}

// pow10u holds 10⁰…10⁸ as integers, for the digits the last word adds.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// value converts a scanned token without a second look at its bytes,
// and reports false when it cannot — only strconv can then. Two tiers,
// both correctly rounded, so each yields the one float64 the token
// denotes, the bits strconv.ParseFloat returns:
//
//   - Clinger's fast path, one IEEE division: the significant digits are
//     below 2⁵³ and at most 22 of the token's digits follow the point, so
//     numerator and denominator are exact float64s and the quotient is
//     correctly rounded by IEEE 754 itself.
//   - Eisel–Lemire (eiselLemire), up to 19 significant digits (so mant
//     did not wrap) and 27 after the point: strconv's own second tier,
//     which returns the correctly rounded value or declines.
//
// A token with an exponent, more than 19 significant digits or an
// Eisel–Lemire refusal is the third tier, strconv, whose slow path is
// exact big-decimal arithmetic.
func (n number) value(neg bool) (float64, bool) {
	if n.exp || n.sig > 19 {
		return 0, false
	}
	if n.mant < 1<<53 && n.frac < len(pow10) {
		v := float64(n.mant) / pow10[n.frac]
		if neg {
			v = -v
		}
		return v, true
	}
	return eiselLemire(n.mant, -n.frac, neg)
}

// float consumes a number and converts it in three tiers, each correctly
// rounded: Clinger's division and Eisel–Lemire in place (number.value),
// which take every pixel of a real frame that pix does not take itself,
// and strconv.ParseFloat, the conversion encoding/json itself ends in, for
// the rest. The grammar check keeps strconv's extensions (hex floats,
// underscores, "inf", "nan") out of it. Overflow is an error there and
// here.
func (d *decoder) float() float64 {
	tok, n := d.number()
	if d.err != nil {
		return 0
	}
	if v, ok := n.value(tok[0] == '-'); ok {
		return v
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail("number %.32s out of range", tok)
	}
	return v
}

func (d *decoder) int() int {
	tok, n := d.number()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 0)
	if n.frac > 0 || n.exp || err != nil {
		d.fail("number %.32s is not an integer in range", tok)
	}
	return int(v)
}

// skip consumes and validates one value of any type: the value of an
// unknown key.
func (d *decoder) skip(depth int) {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth == maxSkipDepth {
			d.fail("value under an unknown key nests deeper than %d", maxSkipDepth)
			return
		}
		d.i++
		for n := 0; d.more(n, byte(c)+2); n++ { // '{'+2 == '}', '['+2 == ']'
			if c == '{' {
				d.rawString()
				d.expect(':')
			}
			d.skip(depth + 1)
		}
	case c == '"':
		d.rawString()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.fail("want a value")
	}
}

func (d *decoder) frames() []Frame {
	if d.null() {
		return nil
	}
	d.expect('[')
	frames := []Frame{}
	for n := 0; d.more(n, ']'); n++ {
		d.frame = n
		frames = append(frames, d.oneFrame())
	}
	d.frame = -1
	return frames
}

func (d *decoder) oneFrame() Frame {
	const shape = 1<<1 | 1<<2 | 1<<3 // c, h, w in frameFields
	var f Frame
	d.expect('{')
	var seen uint
	for n := 0; d.more(n, '}'); n++ {
		switch d.key(frameFields, &seen) {
		case 0:
			f.Index = d.int()
		case 1:
			f.C = d.int()
		case 2:
			f.H = d.int()
		case 3:
			f.W = d.int()
		case 4:
			if seen&shape == shape {
				f.Pix = d.pix(d.pixels(f, len(d.b)-d.i))
			} else {
				f.Pix = d.pix(d.countPix())
			}
		case 5:
			f.Boxes = d.boxes()
		case 6:
			f.Time = d.int()
		case 7:
			f.Weather = d.int()
		case 8:
			f.Location = d.int()
		default:
			d.skip(0)
		}
	}
	if d.err == nil && len(f.Pix) != d.pixels(f, len(d.b)) {
		d.fail("%d pixels for shape %dx%dx%d", len(f.Pix), f.C, f.H, f.W)
	}
	return f
}

// pixels returns c·h·w of f's declared shape. It fails — and returns 0 —
// on a non-positive dimension and on a product larger than the number of
// array elements room bytes could spell at two bytes each, which also
// keeps the product from overflowing.
func (d *decoder) pixels(f Frame, room int) int {
	if d.err != nil {
		return 0
	}
	limit := room / 2
	if f.C <= 0 || f.H <= 0 || f.W <= 0 {
		d.fail("shape %dx%dx%d: c, h and w must be positive", f.C, f.H, f.W)
		return 0
	}
	if f.C > limit || f.H > limit/f.C || f.W > limit/(f.C*f.H) {
		d.fail("shape %dx%dx%d declares more pixels than the body can hold", f.C, f.H, f.W)
		return 0
	}
	return f.C * f.H * f.W
}

// countPix is the pixel count when "pix" comes before the shape that
// would declare it: one more than the commas up to the first ']', which is
// where a flat array of numbers ends. Counting is a second look at those
// bytes, but it keeps Pix a single allocation no larger than its text.
func (d *decoder) countPix() int {
	d.peek()
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		d.fail("unterminated pixel array")
		return 0
	}
	return bytes.Count(d.b[d.i:d.i+end], []byte{','}) + 1
}

// pixRoom is the body a fused pixel step may read: ",0." and three words
// of fraction digits.
const pixRoom = 3 + 3*8

// pix consumes the pixel array into a slice allocated once, for the want
// pixels the caller expects; one more than that is an error.
//
// Each step consumes a separator and a pixel together. The step
// json.Marshal writes for nearly every real pixel — ",0", or ",0." and 1–19
// digits, then ',' or ']' directly — is scanned here a word at a time and
// converted by eiselLemire alone, which is exact whenever it answers; one
// call costs less than the mispredicted branch that picking Clinger's
// division for half of the tokens would add. Every other step (the first
// pixel, whitespace, a sign, an exponent, more digits, fewer than pixRoom
// bytes left, an Eisel–Lemire refusal) restarts at its first byte in more
// and float, so its errors, offsets and strconv fallbacks are theirs.
func (d *decoder) pix(want int) []float64 {
	d.expect('[')
	if d.err != nil {
		return nil
	}
	pix := make([]float64, want)
	b, n := d.b, 0
	for d.err == nil {
		if t := b[d.i:]; n > 0 && n < len(pix) && len(t) >= pixRoom && t[0] == ',' && t[1] == '0' {
			end, v, ok := 2, 0.0, true
			if t[2] == '.' {
				// digits, inline: the third word may end the run at most
				// three digits in, or the token has more than 19.
				var mant uint64
				k := 0
				for ; k < 24; k += 8 {
					w := binary.LittleEndian.Uint64(t[3+k:])
					if stop := ((w + 0x4646464646464646) | (w - 0x3030303030303030)) & 0x8080808080808080; stop != 0 {
						m := bits.TrailingZeros64(stop) >> 3
						mant = mant*pow10u[m] + eightDigits((w-0x3030303030303030)<<(64-8*m))
						k += m
						break
					}
					mant = mant*1e8 + eightDigits(w-0x3030303030303030)
				}
				end = 3 + k
				if ok = k > 0 && k <= 19; ok {
					v, ok = eiselLemire(mant, -k, false)
				}
			}
			if ok && (t[end] == ',' || t[end] == ']') {
				pix[n] = v
				n++
				d.i += end
				continue
			}
		}
		if !d.more(n, ']') {
			return pix[:n]
		}
		if n == len(pix) {
			d.fail("more than the %d pixels of the declared shape", n)
			return nil
		}
		pix[n] = d.float()
		n++
	}
	return nil
}

func (d *decoder) boxes() []Box {
	if d.null() {
		return nil
	}
	d.expect('[')
	boxes := []Box{}
	for n := 0; d.more(n, ']'); n++ {
		var b Box
		d.expect('{')
		var seen uint
		for m := 0; d.more(m, '}'); m++ {
			switch d.key(boxFields, &seen) {
			case 0:
				b.Class = d.int()
			case 1:
				b.X = d.float()
			case 2:
				b.Y = d.float()
			case 3:
				b.W = d.float()
			case 4:
				b.H = d.float()
			default:
				d.skip(0)
			}
		}
		// A box with a field missing is malformed, and insisting on all
		// five means no element is ever appended for less than the ~35
		// bytes that spell them: memory stays proportional to the body.
		if d.err == nil && seen != 1<<len(boxFields)-1 {
			d.fail("box %d must have class, x, y, w and h", n)
		}
		boxes = append(boxes, b)
	}
	return boxes
}
