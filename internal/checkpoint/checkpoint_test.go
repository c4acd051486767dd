package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
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

// header spells a valid envelope header that declares a plen-byte payload.
func header(plen uint64) []byte {
	h := make([]byte, headerSize)
	copy(h, Magic)
	binary.LittleEndian.PutUint32(h[8:], Version)
	binary.LittleEndian.PutUint64(h[16:], plen)
	return h
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
		{"header only", header(claim), 1 << 20},
		{"header and 100 bytes", append(header(claim), make([]byte, 100)...), presizeCap + 1<<20},
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
	f.Add(header(3 << 30))
	f.Add(append(header(1<<32+1), 0))
	f.Add([]byte(Magic))
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
