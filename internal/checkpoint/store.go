package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNoCheckpoint is returned by Latest when the store holds no checkpoints.
var ErrNoCheckpoint = errors.New("checkpoint: store is empty")

// DirStore is a directory of sequence-numbered checkpoint files with
// crash-safe writes: a checkpoint is staged to a temporary file, fsynced,
// then atomically renamed into place, so readers never observe a partial
// file and a crash mid-save leaves the previous checkpoint intact. Old
// checkpoints beyond the retention bound are pruned after each save.
type DirStore struct {
	mu     sync.Mutex
	dir    string
	retain int
}

const storeExt = ".ckpt"

// NewDirStore opens (creating if needed) a checkpoint directory. retain
// bounds how many checkpoints are kept; values < 1 keep exactly one.
func NewDirStore(dir string, retain int) (*DirStore, error) {
	if retain < 1 {
		retain = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store dir: %w", err)
	}
	return &DirStore{dir: dir, retain: retain}, nil
}

// Save writes one checkpoint through fn (which receives the staged file)
// and atomically publishes it, returning the final path.
func (s *DirStore) Save(fn func(w *os.File) error) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	seq := s.nextSeqLocked()
	final := filepath.Join(s.dir, fmt.Sprintf("checkpoint-%016d%s", seq, storeExt))

	tmp, err := os.CreateTemp(s.dir, ".staging-*")
	if err != nil {
		return "", fmt.Errorf("checkpoint: stage file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename

	if err := fn(tmp); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("checkpoint: sync staged file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("checkpoint: close staged file: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("checkpoint: publish: %w", err)
	}
	s.pruneLocked()
	return final, nil
}

// Latest returns the newest checkpoint path, or ErrNoCheckpoint.
func (s *DirStore) Latest() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	paths, err := s.listLocked()
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", ErrNoCheckpoint
	}
	return paths[len(paths)-1], nil
}

func (s *DirStore) listLocked() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list store: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if seqOf(e.Name()) >= 0 {
			paths = append(paths, filepath.Join(s.dir, e.Name()))
		}
	}
	sort.Strings(paths) // zero-padded sequence numbers sort chronologically
	return paths, nil
}

// nextSeqLocked returns one past the highest sequence number present.
func (s *DirStore) nextSeqLocked() int64 {
	paths, err := s.listLocked()
	if err != nil || len(paths) == 0 {
		return 1
	}
	return seqOf(filepath.Base(paths[len(paths)-1])) + 1
}

// pruneLocked deletes the oldest checkpoints beyond the retention bound.
func (s *DirStore) pruneLocked() {
	paths, err := s.listLocked()
	if err != nil {
		return
	}
	for len(paths) > s.retain {
		os.Remove(paths[0])
		paths = paths[1:]
	}
}

// seqOf parses a stored file name's sequence number, or -1 when the name is
// not a checkpoint file.
func seqOf(name string) int64 {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, storeExt) {
		return -1
	}
	num := strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), storeExt)
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 {
		return -1
	}
	return n
}
