package checkpoint

import (
	"errors"
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
