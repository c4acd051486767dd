// Package checkpoint defines ODIN's durable state format: a self-describing
// binary envelope (magic / version header, payload, CRC32 trailer) around
// the full recoverable state of a Server — substrate projector, baseline
// and specialized detectors, cluster/∆-band detector state, registry
// entries — plus an atomic-rename file store with retention.
//
// Format (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "ODINCKPT"
//	8       4     format version (uint32)
//	12      1     reserved (zero; see below)
//	13      3     reserved (zero)
//	16      8     payload length n in bytes (uint64)
//	24      n     payload
//	24+n    4     CRC32 (IEEE) over bytes [0, 24+n)
//
// A version 2 payload (what Write produces) is
//
//	0       8     gob part length g (uint64)
//	8       g     gob-encoded Payload, every frame's Image.Pix empty
//	8+g     rest  the frames' pixels as float64 bits (uint64 each)
//
// with the pixels of Pipeline.Manager.Buffers in ascending cluster ID, then
// those of Pipeline.Outliers in ring order, C·H·W values per frame. The
// section holds exactly those values: a frame that claims more, or bytes
// left over, make the checkpoint corrupt. A version 1 payload is the
// gob-encoded Payload with its pixels inline; Read decodes both.
//
// Older writers stored their compute dtype in byte 12 (0 float64, 1
// float32). Weights were float64 in the payload either way, so readers ignore
// the byte and such a checkpoint restores like any other; gob skips the
// dtype fields the architecture configs no longer have.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sort"

	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/registry"
	"odin/internal/synth"
)

// Magic identifies an ODIN checkpoint stream.
const Magic = "ODINCKPT"

// Version is the format version Write produces. Readers accept it and
// version 1 (the same Payload, pixels inline in the gob); any other fails
// with ErrVersionMismatch. Bump it on any change to the payload layout or
// to Payload that gob cannot absorb, and keep reading what earlier
// versions wrote.
const Version uint32 = 2

const headerSize = 8 + 4 + 1 + 3 + 8

// Typed sentinel errors for the failure modes a reader distinguishes; all
// are errors.Is-able through whatever wrapping the facade adds.
var (
	// ErrBadMagic marks a stream that is not an ODIN checkpoint at all.
	ErrBadMagic = errors.New("checkpoint: bad magic (not an ODIN checkpoint)")
	// ErrVersionMismatch marks a checkpoint written by an incompatible
	// format version.
	ErrVersionMismatch = errors.New("checkpoint: unsupported format version")
	// ErrTruncated marks a stream that ends before the declared payload
	// and trailer are complete.
	ErrTruncated = errors.New("checkpoint: truncated stream")
	// ErrCorrupt marks a complete stream whose bytes fail the CRC or whose
	// payload fails to decode.
	ErrCorrupt = errors.New("checkpoint: corrupt payload")
)

// Payload is the full recoverable state of a Server.
type Payload struct {
	// Seed is the server's base seed: it determines every derived seed
	// (projector, baseline, specializer sequence) and must survive restart
	// so post-restore training jobs draw the same seeds.
	Seed uint64
	// Scene is the synthetic scene geometry.
	Scene synth.SceneConfig
	// Gen is the frame generator's progress (RNG state + frame counter).
	Gen synth.GenState
	// DAGAN is the bootstrapped substrate projector.
	DAGAN gan.State
	// Baseline is the full-size reference detector.
	Baseline detect.State
	// Pipeline is the drift-detection and recovery state: cluster set,
	// specialized models, outlier ring, stats.
	Pipeline core.PipelineState
	// Registry is the fleet model registry, nil when the server had none
	// (or used a registry shared with other servers — shared registries
	// are owned by the fleet, not one server's checkpoint).
	Registry *registry.State
}

// Write serializes the payload to w in the version 2 envelope. Only the
// gob part is built in memory: the header, the gob part and the pixels go
// to w through one running CRC in chunks of chunkSize bytes. A frame whose
// pixel count is not C·H·W is refused before anything is written. p is
// not modified.
func Write(w io.Writer, p *Payload) error {
	meta, pix, err := detachPixels(p)
	if err != nil {
		return err
	}
	var gobPart bytes.Buffer
	gobPart.Write(make([]byte, 8)) // its own length, filled in below
	if err := gob.NewEncoder(&gobPart).Encode(meta); err != nil {
		return fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	g := gobPart.Bytes()
	binary.LittleEndian.PutUint64(g[:8], uint64(len(g)-8))
	n := uint64(len(g))
	for _, px := range pix {
		n += 8 * uint64(len(px))
	}

	crc := crc32.NewIEEE()
	cw := io.MultiWriter(w, crc)
	if _, err := cw.Write(header(Version, n)); err != nil {
		return err
	}
	if _, err := cw.Write(g); err != nil {
		return err
	}
	chunk := make([]byte, 0, chunkSize)
	for _, px := range pix {
		for _, v := range px {
			if len(chunk) == cap(chunk) {
				if _, err := cw.Write(chunk); err != nil {
					return err
				}
				chunk = chunk[:0]
			}
			chunk = binary.LittleEndian.AppendUint64(chunk, math.Float64bits(v))
		}
	}
	if _, err := cw.Write(chunk); err != nil {
		return err
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// chunkSize is how many bytes of pixels Write hands to its writer at once.
const chunkSize = 64 << 10

// header spells an envelope header of the given version declaring an
// n-byte payload.
func header(version uint32, n uint64) []byte {
	h := make([]byte, headerSize)
	copy(h[0:8], Magic)
	binary.LittleEndian.PutUint32(h[8:12], version)
	binary.LittleEndian.PutUint64(h[16:24], n)
	return h
}

// detachPixels returns a shallow copy of p whose frames carry no pixels,
// and those pixels in section order. Frames and images are copied, never
// edited, so neither the caller's payload nor the live pipeline it
// aliases changes.
func detachPixels(p *Payload) (*Payload, [][]float64, error) {
	meta := *p
	st := &meta.Pipeline
	if bufs := st.Manager.Buffers; bufs != nil {
		st.Manager.Buffers = make(map[int][]*synth.Frame, len(bufs))
		for id, frames := range bufs {
			st.Manager.Buffers[id] = append([]*synth.Frame{}, frames...)
		}
	}
	st.Outliers = append([]core.OutlierState(nil), st.Outliers...)
	var pix [][]float64
	err := eachFrame(st, func(f **synth.Frame) error {
		im := *(*f).Image
		if n, ok := pixelCount(im); !ok || n != uint64(len(im.Pix)) {
			return fmt.Errorf("checkpoint: frame %d holds %d pixels, not %d×%d×%d",
				(*f).Index, len(im.Pix), im.C, im.H, im.W)
		}
		pix = append(pix, im.Pix)
		im.Pix = nil
		g := **f
		g.Image = &im
		*f = &g
		return nil
	})
	return &meta, pix, err
}

// attachPixels gives every frame of st a freshly allocated Pix read from
// the pixel section, each frame its own array so that one restored frame
// does not keep the others alive. The section must hold exactly the
// frames' C·H·W values.
func attachPixels(st *core.PipelineState, section []byte) error {
	err := eachFrame(st, func(f **synth.Frame) error {
		im := (*f).Image
		n, ok := pixelCount(*im)
		if !ok || len(im.Pix) != 0 || n > uint64(len(section)/8) {
			return fmt.Errorf("%w: frame %d is %d×%d×%d with %d inline pixels, %d section bytes left",
				ErrCorrupt, (*f).Index, im.C, im.H, im.W, len(im.Pix), len(section))
		}
		if n == 0 {
			return nil
		}
		im.Pix = make([]float64, n)
		for i := range im.Pix {
			im.Pix[i] = math.Float64frombits(binary.LittleEndian.Uint64(section[8*i:]))
		}
		section = section[8*n:]
		return nil
	})
	if err == nil && len(section) != 0 {
		err = fmt.Errorf("%w: %d pixel section bytes belong to no frame", ErrCorrupt, len(section))
	}
	return err
}

// eachFrame calls fn on every frame with an image, in section order:
// Manager.Buffers by ascending cluster ID, then Outliers in ring order. fn
// may replace the frame its argument points at.
func eachFrame(st *core.PipelineState, fn func(f **synth.Frame) error) error {
	ids := make([]int, 0, len(st.Manager.Buffers))
	for id := range st.Manager.Buffers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	visit := func(f **synth.Frame) error {
		if *f == nil || (*f).Image == nil {
			return nil
		}
		return fn(f)
	}
	for _, id := range ids {
		for i := range st.Manager.Buffers[id] {
			if err := visit(&st.Manager.Buffers[id][i]); err != nil {
				return err
			}
		}
	}
	for i := range st.Outliers {
		if err := visit(&st.Outliers[i].Frame); err != nil {
			return err
		}
	}
	return nil
}

// pixelCount returns C·H·W, or false when a dimension is negative or the
// product overflows.
func pixelCount(im synth.Image) (uint64, bool) {
	if im.C < 0 || im.H < 0 || im.W < 0 {
		return 0, false
	}
	hi1, ch := bits.Mul64(uint64(im.C), uint64(im.H))
	hi2, n := bits.Mul64(ch, uint64(im.W))
	return n, hi1 == 0 && hi2 == 0
}

// Read parses an envelope from r, verifies magic, version and CRC, and
// decodes the payload. It also returns header byte 12 as stored: reserved,
// zero from this writer, the dtype code from older ones; nothing reads it.
func Read(r io.Reader) (*Payload, byte, error) {
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, 0, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	if string(head[0:8]) != Magic {
		return nil, 0, ErrBadMagic
	}
	v := binary.LittleEndian.Uint32(head[8:12])
	if v != 1 && v != Version {
		return nil, 0, fmt.Errorf("%w: file is v%d, reader reads v1 and v%d", ErrVersionMismatch, v, Version)
	}
	plen := binary.LittleEndian.Uint64(head[16:24])
	const maxPayload = 1 << 32 // 4 GiB sanity bound against nonsense lengths
	if plen > maxPayload {
		return nil, 0, fmt.Errorf("%w: declared payload of %d bytes", ErrCorrupt, plen)
	}

	body, err := readPayload(r, plen)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: reading %d-byte payload: %v", ErrTruncated, plen, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: reading CRC trailer: %v", ErrTruncated, err)
	}

	crc := crc32.NewIEEE()
	crc.Write(head)
	crc.Write(body)
	if got := binary.LittleEndian.Uint32(trailer[:]); got != crc.Sum32() {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, got, crc.Sum32())
	}

	gobPart, section := body, []byte(nil)
	if v == 2 {
		if len(body) < 8 || binary.LittleEndian.Uint64(body) > uint64(len(body)-8) {
			return nil, 0, fmt.Errorf("%w: gob part overruns the %d-byte payload", ErrCorrupt, len(body))
		}
		g := 8 + binary.LittleEndian.Uint64(body)
		gobPart, section = body[8:g], body[g:]
	}
	var p Payload
	dec := bytes.NewReader(gobPart)
	if err := gob.NewDecoder(dec).Decode(&p); err != nil {
		return nil, 0, fmt.Errorf("%w: decode payload: %v", ErrCorrupt, err)
	}
	if v == 2 {
		if dec.Len() != 0 {
			return nil, 0, fmt.Errorf("%w: %d bytes after the gob payload", ErrCorrupt, dec.Len())
		}
		if err := attachPixels(&p.Pipeline, section); err != nil {
			return nil, 0, err
		}
	}
	return &p, head[12], nil
}

// presizeCap bounds what a payload length allocates up front: a served
// scene's checkpoint (tens of MB) still reads into one buffer.
const presizeCap = 64 << 20

// readPayload reads an n-byte payload. It allocates nothing before the
// first byte arrives, then min(n, presizeCap), and doubles the buffer only
// once it is full, so a length the stream does not back costs at most
// presizeCap or a small multiple of what arrived.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:min(n, 1)]); err != nil {
		return nil, err
	}
	body := make([]byte, min(n, presizeCap))
	have := copy(body, first[:min(n, 1)])
	for {
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return nil, err
		}
		if uint64(len(body)) == n {
			return body, nil
		}
		have = len(body)
		body = append(body, make([]byte, min(n-uint64(have), uint64(have)))...)
	}
}
