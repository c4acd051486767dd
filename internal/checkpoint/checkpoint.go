// Package checkpoint defines ODIN's durable state format: a self-describing
// binary envelope (magic / version header, gob payload, CRC32 trailer)
// around the full recoverable state of a Server — substrate projector,
// baseline and specialized detectors, cluster/∆-band detector state,
// registry entries — plus an atomic-rename file store with retention.
//
// Format (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "ODINCKPT"
//	8       4     format version (uint32)
//	12      1     reserved (zero; see below)
//	13      3     reserved (zero)
//	16      8     payload length in bytes (uint64)
//	24      n     gob-encoded Payload
//	24+n    4     CRC32 (IEEE) over bytes [0, 24+n)
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

	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/registry"
	"odin/internal/synth"
)

// Magic identifies an ODIN checkpoint stream.
const Magic = "ODINCKPT"

// Version is the current format version. Readers accept exactly this
// version; any other fails with ErrVersionMismatch (no cross-version
// migration exists yet — bump the version on any Payload change).
const Version uint32 = 1

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

// Write serializes the payload to w in the envelope format.
func Write(w io.Writer, p *Payload) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(p); err != nil {
		return fmt.Errorf("checkpoint: encode payload: %w", err)
	}

	buf := make([]byte, headerSize, headerSize+body.Len()+4)
	copy(buf[0:8], Magic)
	binary.LittleEndian.PutUint32(buf[8:12], Version)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(body.Len()))
	buf = append(buf, body.Bytes()...)

	crc := crc32.ChecksumIEEE(buf)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	buf = append(buf, trailer[:]...)

	_, err := w.Write(buf)
	return err
}

// Read parses an envelope from r, verifies magic, version and CRC, and
// decodes the payload. It also returns header byte 12 as stored: reserved,
// zero from this writer, the dtype code from older ones; nothing reads it.
func Read(r io.Reader) (*Payload, byte, error) {
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, 0, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	if string(header[0:8]) != Magic {
		return nil, 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(header[8:12]); v != Version {
		return nil, 0, fmt.Errorf("%w: file is v%d, reader is v%d", ErrVersionMismatch, v, Version)
	}
	plen := binary.LittleEndian.Uint64(header[16:24])
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
	crc.Write(header)
	crc.Write(body)
	if got := binary.LittleEndian.Uint32(trailer[:]); got != crc.Sum32() {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, got, crc.Sum32())
	}

	var p Payload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
		return nil, 0, fmt.Errorf("%w: decode payload: %v", ErrCorrupt, err)
	}
	return &p, header[12], nil
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
