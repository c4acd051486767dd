package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func save(t *testing.T, s *DirStore, content string) string {
	t.Helper()
	path, err := s.Save(func(w *os.File) error {
		_, err := w.WriteString(content)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// list returns the stored checkpoint paths, oldest first, as Latest and the
// pruner see them. The tests are single-goroutine, so no lock is needed.
func list(t *testing.T, s *DirStore) []string {
	t.Helper()
	paths, err := s.listLocked()
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestDirStoreSaveLatestList(t *testing.T) {
	s, err := NewDirStore(filepath.Join(t.TempDir(), "ckpt"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty store = %v, want ErrNoCheckpoint", err)
	}

	p1 := save(t, s, "one")
	p2 := save(t, s, "two")
	p3 := save(t, s, "three")

	latest, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest != p3 {
		t.Fatalf("Latest = %s, want %s", latest, p3)
	}
	paths := list(t, s)
	want := []string{p1, p2, p3}
	if len(paths) != len(want) {
		t.Fatalf("List = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("List[%d] = %s, want %s", i, paths[i], want[i])
		}
	}
	b, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "three" {
		t.Fatalf("latest content = %q, want %q", b, "three")
	}
}

func TestDirStoreRetention(t *testing.T) {
	s, err := NewDirStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		save(t, s, "x")
	}
	paths := list(t, s)
	if len(paths) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(paths))
	}
	// Sequence numbers keep rising across pruning: the survivors are the
	// 4th and 5th saves.
	if !strings.Contains(paths[1], "checkpoint-0000000000000005") {
		t.Fatalf("unexpected newest survivor %s", paths[1])
	}
}

func TestDirStoreFailedSaveLeavesNoTrace(t *testing.T) {
	s, err := NewDirStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	save(t, s, "good")
	boom := errors.New("boom")
	if _, err := s.Save(func(w *os.File) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Save error = %v, want boom", err)
	}
	paths := list(t, s)
	if len(paths) != 1 {
		t.Fatalf("store holds %d checkpoints after failed save, want 1", len(paths))
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store dir holds %d files after failed save, want 1 (no staging leftovers)", len(entries))
	}
}

func TestDirStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"notes.txt", "checkpoint-abc.ckpt", "checkpoint-1.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := save(t, s, "real")
	paths := list(t, s)
	if len(paths) != 1 || paths[0] != p {
		t.Fatalf("List = %v, want just %s", paths, p)
	}
}

// tornWriter passes on the first left bytes written to it, then fails, as
// a full disk or a dying process tears a write.
type tornWriter struct {
	w    io.Writer
	left int
}

var errTorn = errors.New("torn write")

func (t *tornWriter) Write(b []byte) (int, error) {
	n, err := t.w.Write(b[:min(len(b), t.left)])
	t.left -= n
	if err == nil && n < len(b) {
		err = errTorn
	}
	return n, err
}

// TestDirStoreTornWrite: a checkpoint write torn in the header, the gob
// part, the pixel section or the trailer fails its Save, publishes
// nothing, leaves no staging file and keeps the previous checkpoint the
// latest; the torn bytes read as ErrTruncated.
func TestDirStoreTornWrite(t *testing.T) {
	p := framesPayload(30, 3, 27, 48)
	full := write(t, p)
	gobPart, _ := split(full)
	gobEnd := headerSize + 8 + len(gobPart)
	s, err := NewDirStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := s.Save(func(w *os.File) error { return Write(w, p) })
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range map[string]int{
		"header":        headerSize / 2,
		"gob length":    headerSize + 3,
		"gob part":      (headerSize + gobEnd) / 2,
		"pixel section": (gobEnd + len(full)) / 2,
		"trailer":       len(full) - 2,
	} {
		var torn bytes.Buffer
		_, err := s.Save(func(w *os.File) error {
			return Write(&tornWriter{w: io.MultiWriter(w, &torn), left: k}, p)
		})
		if !errors.Is(err, errTorn) {
			t.Fatalf("%s: Save = %v, want the torn write's error", name, err)
		}
		if entries, err := os.ReadDir(s.dir); err != nil || len(entries) != 1 {
			t.Fatalf("%s: the store holds %v (%v), want the previous checkpoint alone", name, entries, err)
		}
		if latest, err := s.Latest(); err != nil || latest != prev {
			t.Fatalf("%s: Latest = %s, %v; want %s", name, latest, err, prev)
		}
		if torn.Len() != k {
			t.Fatalf("%s: %d bytes passed the torn writer, want %d", name, torn.Len(), k)
		}
		if _, _, err := Read(&torn); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: reading the %d torn bytes gave %v, want ErrTruncated", name, k, err)
		}
	}
	f, err := os.Open(prev)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := Read(f); err != nil {
		t.Fatalf("the previous checkpoint no longer reads: %v", err)
	}
}
